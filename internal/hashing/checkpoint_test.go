package hashing

import (
	"math/rand"
	"strconv"
	"testing"

	"mpic/internal/bitstring"
)

// TestCheckpointedGoldenEquivalence is the golden test for the incremental
// prefix hasher: under randomized append/truncate/hash schedules — the
// exact access pattern the meeting-points mechanism produces — every
// evaluation must agree bit-for-bit with the reference interface-dispatch
// evaluator on the same fixed seed block, for τ ∈ {1..64} and both seed
// sources. This is the invariant that keeps both endpoints of a link in
// agreement when one of them runs the checkpointed path.
func TestCheckpointedGoldenEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(20262))
	for trial := 0; trial < 320; trial++ {
		tau := 1 + rng.Intn(64)
		maxLen := 1 + rng.Intn(900)
		h := NewInnerProductHash(tau, maxLen)
		var src, srcRef SeedSource
		a, b := rng.Uint64(), rng.Uint64()
		if trial%2 == 0 {
			src, srcRef = NewPRFSource(a, b), NewPRFSource(a, b)
		} else {
			src, srcRef = NewAGHPSource(a, b), NewAGHPSource(a, b)
		}
		lay := NewSeedLayout(h)
		base := lay.EpochOffset(Slot(rng.Intn(int(numSlots))), 0)
		x := bitstring.NewBitVec(0)
		spacing := 1 + rng.Intn(12)
		s := newCheckpointed(nil, h, src, base, x, rng.Intn(10), spacing)
		for step := 0; step < 40; step++ {
			switch op := rng.Intn(10); {
			case op < 5: // append a short run of bits
				w := 1 + rng.Intn(64)
				x.AppendUint(rng.Uint64(), w)
			case op < 7 && x.Len() > 0: // rewind
				x.Truncate(rng.Intn(x.Len() + 1))
			default: // consistency check at a random prefix
				nbits := rng.Intn(x.Len() + 1)
				if rng.Intn(4) == 0 {
					nbits = x.Len() // full transcript, the common case
				}
				got := s.HashPrefix(nbits)
				want := h.HashPrefix(x, nbits, srcRef, base)
				if got != want {
					t.Fatalf("trial %d step %d: τ=%d maxLen=%d len=%d nbits=%d spacing=%d: incremental %#x != reference %#x",
						trial, step, tau, maxLen, x.Len(), nbits, spacing, got, want)
				}
			}
		}
	}
}

// TestCheckpointedEpochGoldenEquivalence extends the golden fuzz with the
// epoch-refresh primitive: randomized append/truncate/hash schedules now
// interleave SetBlock rebases onto other epochs' seed blocks — including
// refreshes immediately after a truncation, and repeated rebases with no
// mutation in between — and every evaluation must still agree
// bit-for-bit with the reference evaluator on the *current* block, for
// τ ∈ {1..64} and both seed sources. This is the exact access pattern of
// HashEpoch mode: the store's checkpoints must never survive a rebase,
// and a no-op rebase (same block) must never discard them.
func TestCheckpointedEpochGoldenEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(90817))
	for trial := 0; trial < 240; trial++ {
		tau := 1 + rng.Intn(64)
		maxLen := 1 + rng.Intn(900)
		h := NewInnerProductHash(tau, maxLen)
		var src, srcRef SeedSource
		a, b := rng.Uint64(), rng.Uint64()
		if trial%2 == 0 {
			src, srcRef = NewPRFSource(a, b), NewPRFSource(a, b)
		} else {
			src, srcRef = NewAGHPSource(a, b), NewAGHPSource(a, b)
		}
		lay := NewSeedLayout(h)
		slot := Slot(rng.Intn(int(numSlots)))
		base := lay.EpochOffset(slot, 0)
		x := bitstring.NewBitVec(0)
		s := newCheckpointed(nil, h, src, base, x, rng.Intn(10), 1+rng.Intn(12))
		for step := 0; step < 48; step++ {
			switch op := rng.Intn(12); {
			case op < 5: // append a short run of bits
				x.AppendUint(rng.Uint64(), 1+rng.Intn(64))
			case op < 7 && x.Len() > 0: // rewind
				x.Truncate(rng.Intn(x.Len() + 1))
			case op < 9: // epoch refresh (sometimes to the current epoch: no-op)
				base = lay.EpochOffset(slot, rng.Intn(5))
				s.SetBlock(base)
				if s.Base() != base {
					t.Fatalf("trial %d step %d: Base() = %#x after SetBlock(%#x)", trial, step, s.Base(), base)
				}
			default: // consistency check at a random prefix
				nbits := rng.Intn(x.Len() + 1)
				if rng.Intn(4) == 0 {
					nbits = x.Len()
				}
				got := s.HashPrefix(nbits)
				want := h.HashPrefix(x, nbits, srcRef, base)
				if got != want {
					t.Fatalf("trial %d step %d: τ=%d len=%d nbits=%d base=%#x: epoch store %#x != reference %#x",
						trial, step, tau, x.Len(), nbits, base, got, want)
				}
			}
		}
	}
}

// TestCheckpointedSetBlockLifecycle pins the rebase semantics directly:
// a rebase to a different block discards every checkpoint and the next
// evaluation rebuilds them against the new block; a rebase to the current
// block keeps them (the no-op that makes per-iteration SetBlock calls in
// epoch mode free inside an epoch).
func TestCheckpointedSetBlockLifecycle(t *testing.T) {
	h := NewInnerProductHash(8, 1<<14)
	src, ref := NewPRFSource(3, 4), NewPRFSource(3, 4)
	lay := NewSeedLayout(h)
	x := bitstring.NewBitVec(0)
	s := newCheckpointed(nil, h, src, lay.EpochOffset(SlotMP1, 0), x, 0, 4)
	for i := 0; i < 64; i++ {
		x.AppendUint(rand.New(rand.NewSource(int64(i))).Uint64(), 64)
	}
	s.HashPrefix(x.Len())
	n := s.Checkpoints()
	if n == 0 {
		t.Fatal("no checkpoints built")
	}
	// No-op rebase: same block, checkpoints survive.
	s.SetBlock(lay.EpochOffset(SlotMP1, 0))
	if got := s.Checkpoints(); got != n {
		t.Fatalf("no-op SetBlock dropped checkpoints: %d -> %d", n, got)
	}
	// Real rebase: all checkpoints gone, next hash matches the reference
	// on the new block and rebuilds the store.
	next := lay.EpochOffset(SlotMP1, 1)
	s.SetBlock(next)
	if got := s.Checkpoints(); got != 0 {
		t.Fatalf("SetBlock to a new block kept %d checkpoints", got)
	}
	if got, want := s.HashPrefix(x.Len()), h.HashPrefix(x, x.Len(), ref, next); got != want {
		t.Fatalf("post-rebase hash %#x != reference %#x", got, want)
	}
	if got := s.Checkpoints(); got != n {
		t.Fatalf("post-rebase rebuild has %d checkpoints, want %d", got, n)
	}
}

// TestCheckpointedResumesAndInvalidates pins the checkpoint lifecycle:
// evaluations extend the checkpoint frontier as the vector grows, a
// truncation drops exactly the checkpoints above the rollback point, and
// hashing after the rollback still matches the reference.
func TestCheckpointedResumesAndInvalidates(t *testing.T) {
	h := NewInnerProductHash(8, 1<<14)
	src, ref := NewPRFSource(3, 4), NewPRFSource(3, 4)
	lay := NewSeedLayout(h)
	base := lay.EpochOffset(SlotMP1, 0)
	x := bitstring.NewBitVec(0)
	s := newCheckpointed(nil, h, src, base, x, 0, 4)
	for i := 0; i < 64; i++ {
		x.AppendUint(rand.New(rand.NewSource(int64(i))).Uint64(), 64)
	}
	s.HashPrefix(x.Len())
	// 64 words at spacing 4: the masked final word keeps the frontier one
	// word short of the end, so checkpoints 1..15 (covering 4..60 words).
	if got := s.Checkpoints(); got != 15 {
		t.Fatalf("checkpoints after 64 words = %d, want 15", got)
	}
	// Truncating into word 22 keeps words 0..21 intact: checkpoints
	// covering up to 20 words (index 5) survive.
	x.Truncate(22*64 + 7)
	if got := s.Checkpoints(); got != 5 {
		t.Fatalf("checkpoints after truncate to word 22 = %d, want 5", got)
	}
	if got, want := s.HashPrefix(x.Len()), h.HashPrefix(x, x.Len(), ref, base); got != want {
		t.Fatalf("post-truncation hash %#x != reference %#x", got, want)
	}
	// Regrow with different content: checkpoints must not resurrect.
	for i := 0; i < 64; i++ {
		x.AppendUint(^uint64(i), 64)
	}
	if got, want := s.HashPrefix(x.Len()), h.HashPrefix(x, x.Len(), ref, base); got != want {
		t.Fatalf("post-regrow hash %#x != reference %#x", got, want)
	}
}

// TestCheckpointedSteadyStateAllocs pins the zero-allocation contract of
// the incremental path under the protocol's real access pattern: grow,
// hash, rewind, hash. Once the seed rows and the checkpoint store are
// warm, none of it allocates.
func TestCheckpointedSteadyStateAllocs(t *testing.T) {
	h := NewInnerProductHash(8, 1<<13)
	src := NewPRFSource(1, 2)
	lay := NewSeedLayout(h)
	x := bitstring.NewBitVec(1 << 13)
	s := NewCheckpointedIn(nil, h, src, lay.EpochOffset(SlotMP1, 0), x, (1<<13)/64)
	rng := rand.New(rand.NewSource(9))
	for x.Len() < 6000 {
		x.AppendUint(rng.Uint64(), 37)
	}
	s.HashPrefix(x.Len())
	allocs := testing.AllocsPerRun(100, func() {
		x.AppendUint(0xdeadbeef, 37)
		_ = s.HashPrefix(x.Len())
		x.Truncate(x.Len() - 37)
		_ = s.HashPrefix(x.Len())
		_ = s.HashPrefix(x.Len() / 2)
	})
	if allocs != 0 {
		t.Fatalf("incremental hash path allocates %.1f times in steady state, want 0", allocs)
	}
}

// BenchmarkCheckpointedSpacing measures the steady-state protocol access
// pattern — append a chunk's worth of bits, hash the full prefix, and
// every few cycles rewind one chunk — across checkpoint spacings, on a
// long transcript (~16k bits). This is the measurement behind
// DefaultCheckpointSpacing: once the resume sweep is shorter than the
// hash's fixed costs, tightening the spacing only costs memory.
func BenchmarkCheckpointedSpacing(b *testing.B) {
	for _, spacing := range []int{2, 8, 32, 128} {
		b.Run("spacing="+strconv.Itoa(spacing), func(b *testing.B) {
			h := NewInnerProductHash(8, 1<<18)
			src := NewPRFSource(1, 2)
			lay := NewSeedLayout(h)
			x := bitstring.NewBitVec(1 << 15)
			s := newCheckpointed(nil, h, src, lay.EpochOffset(SlotMP1, 0), x, (1<<15)/64, spacing)
			rng := rand.New(rand.NewSource(7))
			for x.Len() < 1<<14 {
				x.AppendUint(rng.Uint64(), 42)
			}
			s.HashPrefix(x.Len())
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				x.AppendUint(rng.Uint64(), 42)
				_ = s.HashPrefix(x.Len())
				if i%4 == 3 {
					x.Truncate(x.Len() - 3*42)
					_ = s.HashPrefix(x.Len())
				}
			}
		})
	}
}

// TestStableOffsetsDisjoint: the rewind-stable blocks must not collide
// with each other or with any realistic per-iteration block.
func TestStableOffsetsDisjoint(t *testing.T) {
	h := NewInnerProductHash(16, 1<<18)
	l := NewSeedLayout(h)
	for s := SlotK; s < numSlots; s++ {
		for q := s + 1; q < numSlots; q++ {
			lo, hi := l.EpochOffset(s, 0), l.EpochOffset(q, 0)
			if hi-lo < h.SeedWords() {
				t.Fatalf("stable blocks for slots %d and %d overlap", s, q)
			}
		}
	}
	// A budget far beyond any configured run (tens of thousands of
	// iterations at a quarter-million-bit MaxLen) still stays below the
	// stable region; absurd budgets must trip the guard loudly.
	if !l.RegionsDisjoint(1 << 16) {
		t.Fatal("per-iteration region reaches the stable region at 2^16 iterations")
	}
	if l.RegionsDisjoint(1 << 40) {
		t.Fatal("RegionsDisjoint must eventually report overlap for absurd budgets")
	}
}

// TestCheckpointedPooledEquivalence pins the recycled variant of the
// incremental store: a store built from no retired store, from a retired
// one whose buffers are below the hint (they must grow to it), and from a
// retired one whose buffers are above the hint (it keeps them) all match
// the reference evaluator across appends, truncations and block switches.
func TestCheckpointedPooledEquivalence(t *testing.T) {
	h := NewInnerProductHash(8, 1<<13)
	lay := NewSeedLayout(h)
	blocks := []uint64{lay.EpochOffset(SlotMP1, 0), lay.EpochOffset(SlotMP1, 1), lay.Offset(3, SlotMP2)}
	rng := rand.New(rand.NewSource(99))
	const hint = 64

	run := func(s *Checkpointed, x *bitstring.BitVec, ref SeedSource) {
		t.Helper()
		base := blocks[0]
		// Hash a few words at the initial block first: this is where a
		// store that kept stale seed rows or checkpoints would read them.
		for i := 0; i < 20; i++ {
			x.AppendUint(rng.Uint64(), 64)
		}
		for _, nbits := range []int{1, 64, 200, x.Len()} {
			if got, want := s.HashPrefix(nbits), h.HashPrefix(x, nbits, ref, base); got != want {
				t.Fatalf("nbits %d: recycled %#x != reference %#x", nbits, got, want)
			}
		}
		for step := 0; step < 60; step++ {
			switch op := rng.Intn(10); {
			case op < 4:
				x.AppendUint(rng.Uint64(), 1+rng.Intn(64))
			case op < 5 && x.Len() > 0:
				x.Truncate(rng.Intn(x.Len() + 1))
			case op < 6:
				base = blocks[rng.Intn(len(blocks))]
				s.SetBlock(base)
			default:
				if got, want := s.HashPrefix(x.Len()), h.HashPrefix(x, x.Len(), ref, base); got != want {
					t.Fatalf("step %d: recycled %#x != reference %#x", step, got, want)
				}
			}
		}
	}
	// retire returns a used store built with the given hint.
	retire := func(hintWords int) *Checkpointed {
		x := bitstring.NewBitVec(0)
		s := NewCheckpointedIn(nil, h, NewPRFSource(1, 2), blocks[0], x, hintWords)
		run(s, x, NewPRFSource(1, 2))
		return s
	}

	x := bitstring.NewBitVec(0)
	s := NewCheckpointedIn(nil, h, NewPRFSource(5, 6), blocks[0], x, hint)
	run(s, x, NewPRFSource(5, 6))

	small := retire(4)
	x = bitstring.NewBitVec(0)
	s = NewCheckpointedIn(small, h, NewPRFSource(7, 8), blocks[0], x, hint)
	if cap(s.rows) < hint*h.Tau || cap(s.stage) < hint || cap(s.ck) < (hint/DefaultCheckpointSpacing+1)*h.Tau {
		t.Fatalf("store from a small retired store kept buffers below the hint: %d/%d/%d words", cap(s.rows), cap(s.stage), cap(s.ck))
	}
	run(s, x, NewPRFSource(7, 8))

	large := retire(4 * hint)
	words := large.Words()
	x = bitstring.NewBitVec(0)
	s = NewCheckpointedIn(large, h, NewPRFSource(9, 10), blocks[0], x, hint)
	if s != large || s.Words() != words {
		t.Fatalf("store from a large retired store reallocated: %d words, retired had %d", s.Words(), words)
	}
	run(s, x, NewPRFSource(9, 10))
}

// TestCheckpointedDirtyPoolEquivalence pins the arena-safety property: a
// store re-targeted from a retired one whose buffers are larger than the
// hint and hold stale words produces exactly the hashes of a freshly
// built store, across block switches and prefix growth.
func TestCheckpointedDirtyPoolEquivalence(t *testing.T) {
	h := NewInnerProductHash(8, 4096)
	rng := rand.New(rand.NewSource(7))
	x := bitstring.NewBitVec(2048)
	for i := 0; i < 2048; i++ {
		x.Append(byte(rng.Intn(2)))
	}
	retired := NewCheckpointedIn(nil, h, NewPRFSource(11, 12), 0, x, 64)
	retired.HashPrefix(2048)
	for round := 0; round < 3; round++ {
		// Poison every word the retired store owns, so reuse of a stale
		// word would show up as a hash mismatch.
		for _, b := range [][]uint64{retired.rows, retired.stage, retired.ck} {
			b = b[:cap(b)]
			for j := range b {
				b[j] = 0xdeadbeefdeadbeef
			}
		}
		src := NewPRFSource(uint64(round+1), uint64(round*13+5))
		fresh := NewCheckpointedIn(nil, h, src, 0, x, 32)
		recycled := NewCheckpointedIn(retired, h, src, 0, x, 32)
		for _, base := range []uint64{0, 3 * h.SeedWords(), 7 * h.SeedWords()} {
			fresh.SetBlock(base)
			recycled.SetBlock(base)
			for _, nbits := range []int{0, 13, 64, 700, 2048} {
				if got, want := recycled.HashPrefix(nbits), fresh.HashPrefix(nbits); got != want {
					t.Fatalf("round=%d base=%d nbits=%d: recycled %#x != fresh %#x", round, base, nbits, got, want)
				}
			}
		}
		retired = recycled
	}
}
