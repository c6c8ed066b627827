package hashing

import (
	"encoding/binary"
	"math/bits"
	"math/rand"
	"testing"
)

// aghpOracle is the AGHP source that the table-driven AGHPSource
// replaced, its code verbatim but for its name: one byte-table multiply
// by a and one parity per output bit, and a square-and-multiply gfPow64
// for every fill that does not continue the previous one. It is kept as
// the golden reference: AGHPSource must return the same words under
// every access pattern, including the wrapped exponents of offsets at or
// above 2^58.
type aghpOracle struct {
	a, b uint64
	tbl  [8][256]uint64
	// Sequential-access memo: the power a^(64·nextIdx+1).
	nextIdx uint64
	nextCur uint64
	hasMemo bool
}

func newAGHPOracle(a, b uint64) *aghpOracle {
	if a == 0 {
		a = 0x9d39247e33776d41
	}
	s := &aghpOracle{a: a, b: b}
	// mulByA is linear over GF(2), so precompute per-byte contributions.
	for i := 0; i < 8; i++ {
		for v := 0; v < 256; v++ {
			s.tbl[i][v] = gfMul64(uint64(v)<<uint(8*i), a)
		}
	}
	return s
}

// mulByA multiplies x by the fixed generator via byte-table lookups.
func (s *aghpOracle) mulByA(x uint64) uint64 {
	return s.tbl[0][x&0xff] ^
		s.tbl[1][x>>8&0xff] ^
		s.tbl[2][x>>16&0xff] ^
		s.tbl[3][x>>24&0xff] ^
		s.tbl[4][x>>32&0xff] ^
		s.tbl[5][x>>40&0xff] ^
		s.tbl[6][x>>48&0xff] ^
		s.tbl[7][x>>56&0xff]
}

func (s *aghpOracle) Word(i uint64) uint64 {
	var w [1]uint64
	s.Fill(w[:], i)
	return w[0]
}

func (s *aghpOracle) Fill(dst []uint64, off uint64) {
	if len(dst) == 0 {
		return
	}
	var cur uint64
	if s.hasMemo && s.nextIdx == off {
		cur = s.nextCur
	} else {
		// Bits 64·off+1 .. 64·off+64 of the powering sequence.
		cur = gfPow64(s.a, 64*off+1)
	}
	for k := range dst {
		var w uint64
		for j := 0; j < 64; j++ {
			w |= parity64(cur, s.b) << uint(j)
			cur = s.mulByA(cur)
		}
		dst[k] = w
	}
	s.nextIdx = off + uint64(len(dst))
	s.nextCur = cur
	s.hasMemo = true
}

// gfPow64 raises a to the k-th power in GF(2^64) by square-and-multiply:
// the oracle's seek, and the reference for AGHPSource's power table.
func gfPow64(a uint64, k uint64) uint64 {
	result := uint64(1)
	base := a
	for k > 0 {
		if k&1 == 1 {
			result = gfMul64(result, base)
		}
		base = gfMul64(base, base)
		k >>= 1
	}
	return result
}

// parity64 returns the GF(2) inner product of x and y packed in words.
func parity64(x, y uint64) uint64 {
	return uint64(bits.OnesCount64(x&y) & 1)
}

// aghpScript drives an AGHPSource and the oracle through one sequence of
// fills and reports the first word on which they differ. Each step is
// one byte of kind, eight bytes of offset operand and one byte of
// length (0 to 16 words; one word is read through Word); a short final
// step is dropped. The kind picks the offset relative to where the
// previous fill ended: kind%4 == 0 is the operand itself, 1 the end
// plus the operand mod 1024 (a forward seek), 2 the end minus it (a
// backward one), 3 the end (a continued fill).
func aghpScript(a, b uint64, script []byte) (step int, off uint64, got, want []uint64, ok bool) {
	src, ref := NewAGHPSource(a, b), newAGHPOracle(a, b)
	var end uint64
	for ; len(script) >= 10; script = script[10:] {
		operand := binary.BigEndian.Uint64(script[1:9])
		switch script[0] % 4 {
		case 0:
			off = operand
		case 1:
			off = end + operand%1024
		case 2:
			off = end - operand%1024
		case 3:
			off = end
		}
		n := int(script[9] % 17)
		got, want = make([]uint64, n), make([]uint64, n)
		if n == 1 {
			got[0], want[0] = src.Word(off), ref.Word(off)
		} else {
			src.Fill(got, off)
			ref.Fill(want, off)
		}
		for i := range got {
			if got[i] != want[i] {
				return step, off, got, want, false
			}
		}
		end = off + uint64(n)
		step++
	}
	return 0, 0, nil, nil, true
}

// TestAGHPMatchesOracle pins AGHPSource to the oracle word for word over
// random seeds (a = 0 included) and random access scripts: seeks from
// scratch, offsets at and past the 2^58 wrap, forward and backward
// jumps, fills split into pieces, and single-word reads after fills.
// The FuzzAGHPFill corpus holds fixed shapes of the same kinds.
func TestAGHPMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(35))
	for trial := 0; trial < 500; trial++ {
		a, b := rng.Uint64(), rng.Uint64()
		if trial%10 == 0 {
			a = 0
		}
		script := make([]byte, 10*(1+rng.Intn(12)))
		for i := 0; i < len(script); i += 10 {
			step := script[i : i+10]
			if i > 0 && rng.Intn(4) == 0 {
				// Repeat a step, so that forward seeks reuse their
				// multiplier.
				copy(step, script[i-10:i])
				continue
			}
			// Keep most offsets from scratch in the range a protocol
			// reads, send some within 24 words below the wrap (where a
			// fill crosses it) or just past it, and some to the top of
			// the index range, where a fill's end wraps to 0.
			operand := uint64(rng.Intn(1 << 20))
			switch rng.Intn(3) {
			case 1:
				operand = 1<<58 - 24 + uint64(rng.Intn(32))
			case 2:
				operand = ^uint64(rng.Intn(16))
			}
			step[0] = byte(rng.Intn(4))
			binary.BigEndian.PutUint64(step[1:9], operand)
			step[9] = byte(rng.Intn(17))
		}
		if step, off, got, want, ok := aghpScript(a, b, script); !ok {
			t.Fatalf("trial %d (a=%#x b=%#x) step %d: Fill(off=%#x) = %#x, oracle %#x", trial, a, b, step, off, got, want)
		}
	}
}

// FuzzAGHPFill is the differential fuzzer behind TestAGHPMatchesOracle:
// an arbitrary seed and access script (see aghpScript) must give the
// oracle's words. Plain `go test` replays testdata/fuzz/FuzzAGHPFill.
func FuzzAGHPFill(f *testing.F) {
	f.Fuzz(func(t *testing.T, a, b uint64, script []byte) {
		if step, off, got, want, ok := aghpScript(a, b, script); !ok {
			t.Fatalf("step %d: Fill(off=%#x) = %#x, oracle %#x", step, off, got, want)
		}
	})
}

// seedSources are the sources the seed benchmarks price: the AGHP
// source, the oracle it replaced, and the PRF as the floor.
var seedSources = []struct {
	name string
	make func(a, b uint64) SeedSource
}{
	{"aghp", func(a, b uint64) SeedSource { return NewAGHPSource(a, b) }},
	{"oracle", func(a, b uint64) SeedSource { return newAGHPOracle(a, b) }},
	{"prf", func(a, b uint64) SeedSource { return NewPRFSource(a, b) }},
}

// BenchmarkSeedsHashUint prices the meeting-points counter hash as the
// per-iteration hash mode reads it: τ = 8 seed words at one row's stride
// in the SlotK block of consecutive iterations, so every read is a seek.
func BenchmarkSeedsHashUint(b *testing.B) {
	h := NewInnerProductHash(8, 4096)
	lay := NewSeedLayout(h)
	for _, sc := range seedSources {
		b.Run("src="+sc.name, func(b *testing.B) {
			src := sc.make(0x12345, 0x6789a)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				benchSink ^= h.HashUint(uint64(i), 32, src, lay.Offset(i&1023, SlotMP1))
			}
		})
	}
}

// BenchmarkSeedsRefill prices one prefix hash right after SetBlock moves
// the store to the next iteration's block: τ = 8 rows of 32 seed words
// (a 2048-bit transcript) are filled, each a seek and 32 words, and then
// swept.
func BenchmarkSeedsRefill(b *testing.B) {
	h := NewInnerProductHash(8, 4096)
	lay := NewSeedLayout(h)
	x := randomBits(rand.New(rand.NewSource(3)), 2048)
	for _, sc := range seedSources {
		b.Run("src="+sc.name, func(b *testing.B) {
			s := NewCheckpointedIn(nil, h, sc.make(0x12345, 0x6789a), lay.Offset(0, SlotMP1), x, 32)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				s.SetBlock(lay.Offset(1+i&1023, SlotMP1))
				benchSink ^= s.HashPrefix(x.Len())
			}
		})
	}
}

// BenchmarkSeedsNew prices building a source from its 128-bit seed, which
// every link endpoint does once per run.
func BenchmarkSeedsNew(b *testing.B) {
	for _, sc := range seedSources {
		b.Run("src="+sc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				benchSink ^= sc.make(uint64(i), 0x6789a).Word(0)
			}
		})
	}
}
