package hashing

import (
	"fmt"
	"math/rand"
	"testing"

	"mpic/internal/bitstring"
)

// TestKernelDispatch pins the dispatch surface: every binary offers the
// batched and reference kernels (vector kernels are a bonus the CPU
// decides), the default selection is the first listed, SetKernel
// round-trips every advertised name, and unknown names are rejected
// without changing the selection.
func TestKernelDispatch(t *testing.T) {
	names := Kernels()
	if len(names) < 2 {
		t.Fatalf("Kernels() = %v, want at least batched+reference", names)
	}
	have := map[string]bool{}
	for _, n := range names {
		have[n] = true
	}
	if !have["batched"] || !have["reference"] {
		t.Fatalf("Kernels() = %v, missing batched or reference", names)
	}
	orig := Kernel()
	defer func() {
		if err := SetKernel(orig); err != nil {
			t.Fatal(err)
		}
	}()
	if !have[orig] {
		t.Fatalf("active kernel %q not in Kernels() = %v", orig, names)
	}
	for _, n := range names {
		if err := SetKernel(n); err != nil {
			t.Fatalf("SetKernel(%q): %v", n, err)
		}
		if Kernel() != n {
			t.Fatalf("Kernel() = %q after SetKernel(%q)", Kernel(), n)
		}
	}
	if err := SetKernel("no-such-kernel"); err == nil {
		t.Fatal("SetKernel of unknown name succeeded")
	}
	if Kernel() != names[len(names)-1] {
		t.Fatalf("failed SetKernel changed the selection to %q", Kernel())
	}
}

// TestKernelGoldenEquivalence is the golden fuzz for the dispatched
// kernels: every kernel this binary offers (reference, batched, and the
// vector kernel when the CPU has one) must agree bit-for-bit with the
// reference evaluator, through both cached evaluators — the one-shot
// BlockCache path and the checkpointed incremental path — across
// τ = 1..64, ragged word counts (maxLen and prefix lengths off the word
// grid), watermark-clamped tails after truncations, both seed sources
// (PRF and AGHP), and epoch rebases mid-schedule. This mirrors
// TestCheckpointedEpochGoldenEquivalence with the kernel as an extra
// fuzz axis; it is what lets dispatch vary by CPU without protocol
// transcripts varying with it.
func TestKernelGoldenEquivalence(t *testing.T) {
	orig := Kernel()
	defer func() {
		if err := SetKernel(orig); err != nil {
			t.Fatal(err)
		}
	}()
	for _, name := range Kernels() {
		t.Run(name, func(t *testing.T) {
			if err := SetKernel(name); err != nil {
				t.Fatal(err)
			}
			rng := rand.New(rand.NewSource(41017))
			for trial := 0; trial < 140; trial++ {
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
				c := NewBlockCache(h, src, rng.Intn(10))
				c.SetBlock(base)
				for step := 0; step < 48; step++ {
					switch op := rng.Intn(12); {
					case op < 5: // append a short run of bits
						x.AppendUint(rng.Uint64(), 1+rng.Intn(64))
					case op < 7 && x.Len() > 0: // rewind (watermark-clamped tail)
						x.Truncate(rng.Intn(x.Len() + 1))
					case op < 9: // epoch refresh mid-schedule
						base = lay.EpochOffset(slot, rng.Intn(5))
						s.SetBlock(base)
						c.SetBlock(base)
					default: // check a random (often ragged) prefix
						nbits := rng.Intn(x.Len() + 1)
						if rng.Intn(4) == 0 {
							nbits = x.Len()
						}
						want := h.HashPrefix(x, nbits, srcRef, base)
						if got := s.HashPrefix(nbits); got != want {
							t.Fatalf("trial %d step %d: τ=%d len=%d nbits=%d: checkpointed(%s) %#x != reference %#x",
								trial, step, tau, x.Len(), nbits, name, got, want)
						}
						if got := h.hashWords(x.RawWords(), nbits, c); got != want {
							t.Fatalf("trial %d step %d: τ=%d len=%d nbits=%d: cached(%s) %#x != reference %#x",
								trial, step, tau, x.Len(), nbits, name, got, want)
						}
					}
				}
				// The single-word counter-hash path, at ragged widths.
				w := 1 + rng.Intn(64)
				v := rng.Uint64()
				if got, want := h.HashWordCached(v, w, c), h.HashUint(v&(^uint64(0)>>(64-uint(w))), w, srcRef, base); got != want {
					t.Fatalf("trial %d: HashWordCached(%s) %#x != HashUint %#x (width %d)", trial, name, got, want, w)
				}
			}
		})
	}
}

// TestKernelSweepAllocs pins zero steady-state allocations on every
// kernel — the dispatch switch must not make the stack-resident
// accumulator escape (an indirect call would).
func TestKernelSweepAllocs(t *testing.T) {
	orig := Kernel()
	defer func() {
		if err := SetKernel(orig); err != nil {
			t.Fatal(err)
		}
	}()
	h := NewInnerProductHash(16, 1<<13)
	src := NewPRFSource(7, 9)
	x := bitstring.NewBitVec(0)
	for i := 0; i < 100; i++ {
		x.AppendUint(rand.Uint64(), 64)
	}
	c := NewBlockCache(h, src, 110)
	c.SetBlock(NewSeedLayout(h).StableOffset(SlotK))
	for _, name := range Kernels() {
		t.Run(name, func(t *testing.T) {
			if err := SetKernel(name); err != nil {
				t.Fatal(err)
			}
			h.hashWords(x.RawWords(), x.Len(), c) // warm the seed rows
			allocs := testing.AllocsPerRun(100, func() {
				h.hashWords(x.RawWords(), x.Len(), c)
			})
			if allocs != 0 {
				t.Fatalf("kernel %s allocates %.1f times per hash in steady state, want 0", name, allocs)
			}
		})
	}
}

// BenchmarkKernelSweep is the kernel micro table behind PERF.md: the
// cached prefix hash by kernel, output width τ, and transcript length.
// The seed rows are pre-materialized, so this isolates the τ-row
// accumulate sweep itself.
func BenchmarkKernelSweep(b *testing.B) {
	orig := Kernel()
	defer func() {
		if err := SetKernel(orig); err != nil {
			b.Fatal(err)
		}
	}()
	for _, tau := range []int{8, 32, 64} {
		for _, bits := range []int{4096, 16384} {
			h := NewInnerProductHash(tau, bits)
			src := NewPRFSource(11, 13)
			x := bitstring.NewBitVec(0)
			for x.Len() < bits {
				x.AppendUint(rand.Uint64(), 64)
			}
			c := NewBlockCache(h, src, bits/64)
			c.SetBlock(NewSeedLayout(h).StableOffset(SlotK))
			h.hashWords(x.RawWords(), bits, c)
			for _, name := range Kernels() {
				b.Run(fmt.Sprintf("tau=%d/bits=%d/%s", tau, bits, name), func(b *testing.B) {
					if err := SetKernel(name); err != nil {
						b.Fatal(err)
					}
					b.ReportAllocs()
					var sink uint64
					for i := 0; i < b.N; i++ {
						sink ^= h.hashWords(x.RawWords(), bits, c)
					}
					benchSink = sink
				})
			}
		}
	}
}

var benchSink uint64
