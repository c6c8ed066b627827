package hashing

import (
	"math/rand"
	"testing"
	"testing/quick"

	"mpic/internal/bitstring"
)

func TestGFMulIdentityAndZero(t *testing.T) {
	xs := []uint64{1, 2, 3, 0xdeadbeef, 1 << 63, ^uint64(0)}
	for _, x := range xs {
		if gfMul64(x, 1) != x || gfMul64(1, x) != x {
			t.Errorf("1 is not multiplicative identity for %#x", x)
		}
		if gfMul64(x, 0) != 0 || gfMul64(0, x) != 0 {
			t.Errorf("0 not absorbing for %#x", x)
		}
	}
}

func TestGFMulCommutativeAssociativeDistributive(t *testing.T) {
	f := func(a, b, c uint64) bool {
		if gfMul64(a, b) != gfMul64(b, a) {
			return false
		}
		if gfMul64(gfMul64(a, b), c) != gfMul64(a, gfMul64(b, c)) {
			return false
		}
		return gfMul64(a, b^c) == gfMul64(a, b)^gfMul64(a, c)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestGFPow(t *testing.T) {
	if gfPow64(5, 0) != 1 {
		t.Error("a^0 != 1")
	}
	if gfPow64(5, 1) != 5 {
		t.Error("a^1 != a")
	}
	// a^(i+j) == a^i * a^j
	f := func(a uint64, i, j uint16) bool {
		return gfPow64(a, uint64(i)+uint64(j)) == gfMul64(gfPow64(a, uint64(i)), gfPow64(a, uint64(j)))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestPRFSourceDeterministicAndSpread(t *testing.T) {
	s1 := NewPRFSource(1, 2)
	s2 := NewPRFSource(1, 2)
	s3 := NewPRFSource(1, 3)
	same, diff := 0, 0
	for i := uint64(0); i < 100; i++ {
		if s1.Word(i) != s2.Word(i) {
			t.Fatal("same key produced different streams")
		}
		if s1.Word(i) == s3.Word(i) {
			same++
		} else {
			diff++
		}
	}
	if same > 2 {
		t.Errorf("different keys collide on %d/100 words", same)
	}
	// Output should look balanced: count ones over many words.
	ones := 0
	for i := uint64(0); i < 1000; i++ {
		w := s1.Word(i)
		for j := 0; j < 64; j++ {
			ones += int(w >> uint(j) & 1)
		}
	}
	total := 1000 * 64
	if ones < total*45/100 || ones > total*55/100 {
		t.Errorf("PRF bit balance %d/%d outside [45%%,55%%]", ones, total)
	}
}

func TestAGHPSourceSequentialMatchesRandomAccess(t *testing.T) {
	src := NewAGHPSource(0x123456789abcdef, 0xfedcba987654321)
	// Word(i) must be consistent with recomputing from scratch.
	for _, i := range []uint64{0, 1, 2, 17, 100} {
		w1 := src.Word(i)
		w2 := src.Word(i)
		if w1 != w2 {
			t.Fatalf("Word(%d) not deterministic", i)
		}
	}
	// Adjacent words come from a contiguous powering sequence: verify by
	// direct recomputation of one bit.
	i := uint64(3)
	w := src.Word(i)
	cur := gfPow64(src.a, 64*i+1)
	for j := 0; j < 64; j++ {
		want := parity64(cur, src.b)
		if (w>>uint(j))&1 != want {
			t.Fatalf("bit %d of word %d mismatch", j, i)
		}
		cur = gfMul64(cur, src.a)
	}
}

func TestAGHPZeroARemapped(t *testing.T) {
	src := NewAGHPSource(0, 7)
	if src.a == 0 {
		t.Fatal("zero multiplier not remapped")
	}
	// Stream must not be constant.
	w0, w1 := src.Word(0), src.Word(1)
	if w0 == w1 && w0 == src.Word(2) {
		t.Error("suspiciously constant stream")
	}
}

func TestAGHPBalance(t *testing.T) {
	src := NewAGHPSource(0xabcdef12345678, 0x1122334455667788)
	ones, total := 0, 0
	for i := uint64(0); i < 200; i++ {
		w := src.Word(i)
		for j := 0; j < 64; j++ {
			ones += int(w >> uint(j) & 1)
			total++
		}
	}
	if ones < total*45/100 || ones > total*55/100 {
		t.Errorf("AGHP bit balance %d/%d outside [45%%,55%%]", ones, total)
	}
}

func TestBulkFillMatchesWord(t *testing.T) {
	sources := map[string]SeedSource{
		"prf":  NewPRFSource(5, 9),
		"aghp": NewAGHPSource(5, 9),
	}
	for name, src := range sources {
		t.Run(name, func(t *testing.T) {
			// An independent instance for Word: the AGHP sequential memo
			// must not let Fill and Word feed each other.
			var ref SeedSource
			if name == "prf" {
				ref = NewPRFSource(5, 9)
			} else {
				ref = NewAGHPSource(5, 9)
			}
			for _, tc := range []struct {
				off uint64
				n   int
			}{{0, 1}, {0, 10}, {7, 5}, {100, 1}, {3, 64}, {12, 3}} {
				dst := make([]uint64, tc.n)
				src.Fill(dst, tc.off)
				for i, w := range dst {
					if want := ref.Word(tc.off + uint64(i)); w != want {
						t.Fatalf("Fill(off=%d)[%d] = %#x, want %#x", tc.off, i, w, want)
					}
				}
			}
			// Non-sequential jumps (backwards, with gaps) after a fill.
			dst := make([]uint64, 4)
			src.Fill(dst, 2)
			for i, w := range dst {
				if want := ref.Word(2 + uint64(i)); w != want {
					t.Fatalf("re-Fill(off=2)[%d] = %#x, want %#x", i, w, want)
				}
			}
		})
	}
}

// TestCheckpointedBlockSwitchGoldenEquivalence is the golden test for
// per-iteration seed blocks (the HashLegacy access pattern): over a fixed
// random transcript, the store is re-pointed at the Offset blocks of
// random iterations and slots, and several prefix lengths per block, in
// random order, grow and reuse the materialized rows. Every evaluation
// must agree bit-for-bit with the reference evaluator, for τ ∈ {1..64}
// and both seed sources.
func TestCheckpointedBlockSwitchGoldenEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(2026))
	for trial := 0; trial < 300; trial++ {
		tau := 1 + rng.Intn(64)
		maxLen := 1 + rng.Intn(700)
		h := NewInnerProductHash(tau, maxLen)
		src, srcRef := testSources(trial, rng)
		x := randomBits(rng, rng.Intn(2*maxLen))
		lay := NewSeedLayout(h)
		s := NewCheckpointedIn(nil, h, src, lay.Offset(0, SlotMP1), x, rng.Intn(8))
		for step := 0; step < 6; step++ {
			off := lay.Offset(rng.Intn(5), Slot(rng.Intn(int(numSlots))))
			s.SetBlock(off)
			for k := 0; k < 3; k++ {
				nbits := rng.Intn(x.Len() + 1)
				if got, want := s.HashPrefix(nbits), h.HashPrefix(x, nbits, srcRef, off); got != want {
					t.Fatalf("trial %d: τ=%d maxLen=%d nbits=%d off=%d: checkpointed %#x != reference %#x",
						trial, tau, maxLen, nbits, off, got, want)
				}
			}
		}
	}
}

// testSources returns two independent instances of one random seed
// source — PRF on even trials, AGHP on odd ones — so the AGHP
// sequential-access memo of the one under test cannot feed the
// reference.
func testSources(trial int, rng *rand.Rand) (src, ref SeedSource) {
	a, b := rng.Uint64(), rng.Uint64()
	if trial%2 == 0 {
		return NewPRFSource(a, b), NewPRFSource(a, b)
	}
	return NewAGHPSource(a, b), NewAGHPSource(a, b)
}

// TestHashUintMatchesBitVec pins the counter hash: HashUint(v, width)
// must equal Hash over a BitVec holding the width low-order bits of v,
// for τ ∈ {1..64}, widths 0..64 and both seed sources.
func TestHashUintMatchesBitVec(t *testing.T) {
	rng := rand.New(rand.NewSource(31337))
	for trial := 0; trial < 400; trial++ {
		h := NewInnerProductHash(1+rng.Intn(64), 1+rng.Intn(700))
		src, srcRef := testSources(trial, rng)
		off := NewSeedLayout(h).Offset(rng.Intn(9), SlotK)
		v, width := rng.Uint64(), rng.Intn(65)
		x := bitstring.NewBitVec(width)
		x.AppendUint(v, width)
		if got, want := h.HashUint(v, width, src, off), h.Hash(x, srcRef, off); got != want {
			t.Fatalf("trial %d: τ=%d HashUint(%#x, %d) = %#x, want %#x", trial, h.Tau, v, width, got, want)
		}
	}
}

// TestHashUintAllocs pins the counter hash's zero-allocation contract:
// the meeting-points step calls it once per link per iteration.
func TestHashUintAllocs(t *testing.T) {
	h := NewInnerProductHash(16, 4096)
	for _, src := range []SeedSource{NewPRFSource(1, 2), NewAGHPSource(1, 2)} {
		allocs := testing.AllocsPerRun(100, func() {
			benchSink ^= h.HashUint(42, 32, src, h.SeedWords())
		})
		if allocs != 0 {
			t.Fatalf("HashUint over %T allocates %.1f times per call, want 0", src, allocs)
		}
	}
}

// TestCheckpointedBlockSwitchAllocs pins the zero-allocation contract of
// re-pointing a store between per-iteration blocks: once the rows and
// checkpoints are sized, switching blocks and re-sweeping against the
// new one allocates nothing.
func TestCheckpointedBlockSwitchAllocs(t *testing.T) {
	h := NewInnerProductHash(8, 4096)
	lay := NewSeedLayout(h)
	x := randomBits(rand.New(rand.NewSource(3)), 4000)
	s := NewCheckpointedIn(nil, h, NewPRFSource(1, 2), lay.Offset(0, SlotMP1), x, int(h.wordsPerRow()))
	// Warm both blocks once.
	s.HashPrefix(x.Len())
	s.SetBlock(lay.Offset(1, SlotMP1))
	s.HashPrefix(x.Len())
	allocs := testing.AllocsPerRun(100, func() {
		s.SetBlock(lay.Offset(0, SlotMP1))
		benchSink ^= s.HashPrefix(x.Len())
		s.SetBlock(lay.Offset(1, SlotMP1))
		benchSink ^= s.HashPrefix(1000)
	})
	if allocs != 0 {
		t.Fatalf("block switch allocates %.1f times per iteration, want 0", allocs)
	}
}

func TestHashPaddingProperty(t *testing.T) {
	// h(x) == h(x ◦ 0^k): the property footnote 11 relies on.
	h := NewInnerProductHash(16, 512)
	src := NewPRFSource(11, 22)
	x := bitstring.FromBits([]byte{1, 0, 1, 1, 0, 1})
	hx := h.Hash(x, src, 0)
	y := x.Clone()
	for i := 0; i < 100; i++ {
		y.Append(0)
	}
	if got := h.Hash(y, src, 0); got != hx {
		t.Fatalf("h(x◦0^100) = %#x != h(x) = %#x", got, hx)
	}
}

func TestHashDistinguishesInputs(t *testing.T) {
	h := NewInnerProductHash(32, 256)
	src := NewPRFSource(3, 4)
	rng := rand.New(rand.NewSource(7))
	collisions := 0
	const trials = 300
	for i := 0; i < trials; i++ {
		a := randomBits(rng, 100)
		b := randomBits(rng, 100)
		if a.Equal(b) {
			continue
		}
		if h.Hash(a, src, 0) == h.Hash(b, src, 0) {
			collisions++
		}
	}
	// With 32-bit outputs, any collision in 300 trials is overwhelming
	// evidence of a bug.
	if collisions != 0 {
		t.Errorf("%d collisions in %d trials with 32-bit hash", collisions, trials)
	}
}

func TestHashSeedOffsetsIndependent(t *testing.T) {
	h := NewInnerProductHash(16, 128)
	src := NewPRFSource(3, 4)
	x := randomBits(rand.New(rand.NewSource(1)), 100)
	h1 := h.Hash(x, src, 0)
	h2 := h.Hash(x, src, h.SeedWords())
	if h1 == h2 {
		t.Error("different seed blocks produced identical hash (suspicious)")
	}
}

func TestHashEmptyInputIsZero(t *testing.T) {
	h := NewInnerProductHash(8, 64)
	src := NewPRFSource(0, 0)
	empty := bitstring.NewBitVec(0)
	if got := h.Hash(empty, src, 0); got != 0 {
		t.Errorf("hash of empty input = %#x, want 0 (inner product with nothing)", got)
	}
}

func TestHashUintWidth(t *testing.T) {
	h := NewInnerProductHash(16, 64)
	src := NewPRFSource(9, 9)
	if h.HashUint(5, 32, src, 0) != h.HashUint(5, 32, src, 0) {
		t.Error("HashUint not deterministic")
	}
	if h.HashUint(5, 32, src, 0) == h.HashUint(6, 32, src, 0) {
		t.Error("HashUint(5) == HashUint(6): suspicious for 16-bit output")
	}
}

func TestHashClamps(t *testing.T) {
	h := NewInnerProductHash(0, 0)
	if h.Tau != 1 || h.MaxLen != 1 {
		t.Errorf("clamping failed: tau=%d maxLen=%d", h.Tau, h.MaxLen)
	}
	h = NewInnerProductHash(100, 10)
	if h.Tau != 64 {
		t.Errorf("tau not clamped to 64: %d", h.Tau)
	}
}

func TestHashCollisionRateMatchesTau(t *testing.T) {
	// With τ output bits the collision probability for distinct inputs is
	// 2^-τ (Lemma 2.3). Empirically check τ=4: expect ≈ 1/16.
	h := NewInnerProductHash(4, 64)
	rng := rand.New(rand.NewSource(99))
	collisions, trials := 0, 2000
	for i := 0; i < trials; i++ {
		src := NewPRFSource(rng.Uint64(), rng.Uint64())
		a := randomBits(rng, 40)
		b := randomBits(rng, 40)
		if a.Equal(b) {
			continue
		}
		if h.Hash(a, src, 0) == h.Hash(b, src, 0) {
			collisions++
		}
	}
	rate := float64(collisions) / float64(trials)
	if rate < 0.02 || rate > 0.15 {
		t.Errorf("collision rate %.4f, want around 1/16 = 0.0625", rate)
	}
}

func TestSeedLayoutNonOverlapping(t *testing.T) {
	h := NewInnerProductHash(8, 256)
	l := NewSeedLayout(h)
	seen := map[uint64]bool{}
	for it := 0; it < 5; it++ {
		for s := SlotK; s < numSlots; s++ {
			off := l.Offset(it, s)
			if seen[off] {
				t.Fatalf("offset %d reused at it=%d slot=%d", off, it, s)
			}
			seen[off] = true
		}
	}
	// Blocks must be spaced at least SeedWords apart.
	if l.Offset(0, SlotMP1)-l.Offset(0, SlotK) < h.SeedWords() {
		t.Error("seed blocks overlap")
	}
}

func randomBits(rng *rand.Rand, n int) *bitstring.BitVec {
	v := bitstring.NewBitVec(n)
	for i := 0; i < n; i++ {
		v.Append(byte(rng.Intn(2)))
	}
	return v
}

// gfMul64BitSerial is the bit-serial GF(2^64) multiply gfMul64 replaced,
// verbatim: one conditional shift-xor per set bit of b, then the same
// reduction. It is kept as the golden reference for the windowed multiply.
func gfMul64BitSerial(a, b uint64) uint64 {
	var lo, hi uint64
	for i := 0; i < 64; i += 8 {
		// Process 8 bits of b at a time for speed.
		chunk := (b >> uint(i)) & 0xff
		for j := 0; j < 8; j++ {
			if chunk>>uint(j)&1 == 1 {
				sh := uint(i + j)
				lo ^= a << sh
				if sh != 0 {
					hi ^= a >> (64 - sh)
				}
			}
		}
	}
	// Reduce the 128-bit product modulo x^64 + x^4 + x^3 + x + 1. Folding
	// the high half twice suffices because the reduction polynomial's
	// non-leading part fits in 5 bits.
	for hi != 0 {
		h := hi
		hi = 0
		lo ^= h ^ (h << 1) ^ (h << 3) ^ (h << 4)
		hi ^= (h >> 63) ^ (h >> 61) ^ (h >> 60)
	}
	return lo
}

func TestGFMulMatchesBitSerial(t *testing.T) {
	special := []uint64{0, 1, ^uint64(0)}
	for i := uint(0); i < 64; i++ {
		special = append(special, 1<<i)
	}
	for _, a := range special {
		for _, b := range special {
			if got, want := gfMul64(a, b), gfMul64BitSerial(a, b); got != want {
				t.Fatalf("gfMul64(%#x, %#x) = %#x, want %#x", a, b, got, want)
			}
		}
	}
	rng := rand.New(rand.NewSource(64))
	for i := 0; i < 1000000; i++ {
		a, b := rng.Uint64(), rng.Uint64()
		if got, want := gfMul64(a, b), gfMul64BitSerial(a, b); got != want {
			t.Fatalf("gfMul64(%#x, %#x) = %#x, want %#x", a, b, got, want)
		}
	}
}

// gfOperands are random multiplication operands for the GF benchmarks,
// so the bit-serial multiply's branches see unpredictable bits.
var gfOperands = func() []uint64 {
	rng := rand.New(rand.NewSource(1))
	xs := make([]uint64, 1024)
	for i := range xs {
		xs[i] = rng.Uint64()
	}
	return xs
}()

func benchGFMul(b *testing.B, mul func(a, b uint64) uint64) {
	var acc uint64
	for i := 0; i < b.N; i++ {
		acc ^= mul(gfOperands[i&1023], gfOperands[(i+1)&1023])
	}
	sinkGF = acc
}

func BenchmarkGFMul64(b *testing.B) { benchGFMul(b, gfMul64) }

func BenchmarkGFMul64BitSerial(b *testing.B) { benchGFMul(b, gfMul64BitSerial) }

var sinkGF uint64
