package hashing

// SeedSource yields an unbounded stream of seed bits, addressed by 64-bit
// word index. Two parties holding the same source parameters derive exactly
// the same stream, which is how a CRS or an exchanged seed turns into the
// per-iteration hash seeds of Algorithm 1 / Algorithm A.
type SeedSource interface {
	// Word returns the i-th 64-bit word of the stream.
	Word(i uint64) uint64
	// Fill sets dst[i] = Word(off + i) for every i. A run of words in one
	// call amortizes per-word setup (for the AGHP source, the gfPow that
	// positions the powering sequence); Checkpointed materializes its
	// seed rows this way.
	Fill(dst []uint64, off uint64)
}

// PRFSource derives seed words from a 128-bit key by strong integer mixing
// (splitmix64-style). It stands in for the uniformly random CRS of
// Algorithm 1: both endpoints derive identical words, and the oblivious
// adversary fixes its noise without seeing the key.
type PRFSource struct {
	k0, k1 uint64
}

// NewPRFSource returns a PRF-backed seed source for the given key halves.
func NewPRFSource(k0, k1 uint64) *PRFSource {
	return &PRFSource{k0: k0, k1: k1}
}

// Fill implements SeedSource. The mixing function is small enough to
// inline, so the loop runs with no per-word call overhead.
func (p *PRFSource) Fill(dst []uint64, off uint64) {
	for i := range dst {
		dst[i] = p.Word(off + uint64(i))
	}
}

// Word implements SeedSource.
func (p *PRFSource) Word(i uint64) uint64 {
	x := i + 0x9e3779b97f4a7c15 + p.k0
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	x ^= p.k1
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// AGHPSource is the δ-biased string generator of Lemma 2.5, using the
// Alon–Goldreich–Håstad–Peralta "powering" construction over GF(2^64):
// bit i of the stream is ⟨a^(i+1), b⟩ over GF(2). A stream of N bits has
// bias at most N/2^64, far below any δ = 2^-Θ(|Π|K/m) needed at
// simulation scale, while the seed is just (a, b): 128 uniform bits —
// exactly the short-seed/long-output trade the paper's randomness
// exchange relies on.
//
// Multiplication by the fixed generator a is table-driven (one 8×256
// lookup table built at construction), and sequential word access reuses
// the running power, so hashing sweeps cost ~64 table multiplications per
// word. The source is not safe for concurrent use; every party holds its
// own instance.
type AGHPSource struct {
	a, b uint64
	tbl  [8][256]uint64
	// Sequential-access memo: the power a^(64·nextIdx+1).
	nextIdx uint64
	nextCur uint64
	hasMemo bool
}

// NewAGHPSource builds a δ-biased source from a 128-bit seed. A zero `a`
// would give a constant stream, so it is remapped to a fixed nonzero
// element.
func NewAGHPSource(a, b uint64) *AGHPSource {
	if a == 0 {
		a = 0x9d39247e33776d41
	}
	s := &AGHPSource{a: a, b: b}
	// mulByA is linear over GF(2), so precompute per-byte contributions.
	for i := 0; i < 8; i++ {
		for v := 0; v < 256; v++ {
			s.tbl[i][v] = gfMul64(uint64(v)<<uint(8*i), a)
		}
	}
	return s
}

// mulByA multiplies x by the fixed generator via byte-table lookups.
func (s *AGHPSource) mulByA(x uint64) uint64 {
	return s.tbl[0][x&0xff] ^
		s.tbl[1][x>>8&0xff] ^
		s.tbl[2][x>>16&0xff] ^
		s.tbl[3][x>>24&0xff] ^
		s.tbl[4][x>>32&0xff] ^
		s.tbl[5][x>>40&0xff] ^
		s.tbl[6][x>>48&0xff] ^
		s.tbl[7][x>>56&0xff]
}

// Word implements SeedSource: 64 consecutive stream bits packed into one
// word.
func (s *AGHPSource) Word(i uint64) uint64 {
	var w [1]uint64
	s.Fill(w[:], i)
	return w[0]
}

// Fill implements SeedSource: one gfPow positions the powering
// sequence (skipped entirely when the fill continues the previous one),
// then the whole run is swept with 64 table multiplications per word.
// Sequential fills are therefore ~64× cheaper per word than random
// single-word access.
func (s *AGHPSource) Fill(dst []uint64, off uint64) {
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
