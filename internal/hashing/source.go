package hashing

import "math/bits"

// SeedSource yields an unbounded stream of seed bits, addressed by 64-bit
// word index. Two parties holding the same source parameters derive exactly
// the same stream, which is how a CRS or an exchanged seed turns into the
// per-iteration hash seeds of Algorithm 1 / Algorithm A.
type SeedSource interface {
	// Word returns the i-th 64-bit word of the stream.
	Word(i uint64) uint64
	// Fill sets dst[i] = Word(off + i) for every i. A run of words in one
	// call amortizes per-word setup (for the AGHP source, the seek that
	// positions the powering sequence: up to 59 GF(2^64) multiplies from
	// scratch, one forward at a repeated stride, none in sequence, then
	// 32 table lookups a word); Checkpointed materializes its seed rows
	// this way.
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
// Word i starts at the running power cur = a^(64·i+1), and its bit j is
// ⟨a^j·cur, b⟩ = ⟨cur, c_j⟩ with c_j = (Mᵀ)^j·b, M the multiplication by
// a. So the word is a GF(2)-linear function of cur, and so is the step
// to the next word's power, cur·a^64. Both maps are nibble tables (16
// nibble positions × 16 values, 2 KiB each), and a sequential word costs
// 32 lookups. A seek to a word that does not continue the previous fill
// multiplies table entries: from scratch, one entry of a 64-entry
// a^(2^i) table per set bit of 64·i+1; forward from the previous fill's
// end by d words, one multiply by a^(64·d), whose value for the last d
// is kept. A run of reads at one stride, such as HashUint's τ words or
// Checkpointed's τ rows, therefore costs one multiply per read after the
// first. The source is not safe for concurrent use; every party holds
// its own instance.
type AGHPSource struct {
	a, b uint64
	word nibbleMap  // cur ↦ the word at cur
	step nibbleMap  // cur ↦ cur·a^64
	pow2 [64]uint64 // pow2[i] = a^(2^i)
	// nextCur is the power word nextIdx starts at when a fill continues
	// the previous one. While seekable holds, the fills since the last
	// seek from scratch started below aghpWrap, so nextCur is
	// a^(64·nextIdx+1) with no wrapped exponent, and a forward seek from
	// it lands where a seek from scratch would.
	nextIdx, nextCur uint64
	seekable         bool
	// The multiplier a^(64·stepD) of the last forward seek.
	stepD, stepMul uint64
}

// aghpWrap is the first word index whose exponent 64·i+1 wraps in a
// uint64. A seek from scratch raises a to the wrapped exponent there,
// which is not the power a fill running past aghpWrap reaches. Both
// answers are part of the stream the tests pin, so forward seeks stay
// below aghpWrap.
const aghpWrap = 1 << 58

// NewAGHPSource builds a δ-biased source from a 128-bit seed. A zero `a`
// would give a constant stream, so it is remapped to a fixed nonzero
// element.
func NewAGHPSource(a, b uint64) *AGHPSource {
	if a == 0 {
		a = 0x9d39247e33776d41
	}
	s := &AGHPSource{a: a, b: b, nextCur: a, seekable: true}
	s.pow2[0] = a
	for i := 1; i < 64; i++ {
		s.pow2[i] = gfSqr64(s.pow2[i-1])
	}
	// Each map is built from its images of the basis x^k. Those of M and
	// of the step are a·x^k and a^64·x^k, each one multiply-by-x from the
	// last; Mᵀ is M transposed. Row j of the word map is c_j, so the word
	// map is the transpose of the c_j.
	var mImg, stepImg, c [64]uint64
	mImg[0], stepImg[0] = a, s.pow2[6]
	for k := 1; k < 64; k++ {
		mImg[k], stepImg[k] = mulX(mImg[k-1]), mulX(stepImg[k-1])
	}
	s.step.build(&stepImg)
	transpose64(&mImg)
	var mt nibbleMap
	mt.build(&mImg)
	c[0] = b
	for j := 1; j < 64; j++ {
		c[j] = mt.apply(c[j-1])
	}
	transpose64(&c)
	s.word.build(&c)
	return s
}

// mulX multiplies v by x in GF(2^64).
func mulX(v uint64) uint64 {
	return v<<1 ^ gf64Poly&-(v>>63)
}

// transpose64 transposes the 64×64 bit matrix whose row j is m[j]: bit k
// of m[j] and bit j of m[k] trade places. Each pass swaps the
// off-diagonal w×w blocks of every 2w×2w block.
func transpose64(m *[64]uint64) {
	mask := uint64(0x00000000ffffffff)
	for w := 32; w != 0; w >>= 1 {
		for k := 0; k < 64; k = (k + w + 1) &^ w {
			t := (m[k]>>uint(w) ^ m[k+w]) & mask
			m[k] ^= t << uint(w)
			m[k+w] ^= t
		}
		mask ^= mask << uint(w>>1)
	}
}

// A nibbleMap is a GF(2)-linear map on 64-bit words as 16 lookup tables,
// one per nibble of the input: t[p][v] is the image of v<<4p.
type nibbleMap [16][16]uint64

// build fills the tables of the map whose image of x^k is img[k]: the
// entries v+2^i for v < 2^i are entry v plus the image of bit i.
func (t *nibbleMap) build(img *[64]uint64) {
	for p := range t {
		row := &t[p]
		for i, e := range img[4*p : 4*p+4] {
			for v := 0; v < 1<<i; v++ {
				row[1<<i+v] = row[v] ^ e
			}
		}
	}
}

// apply returns the image of x.
func (t *nibbleMap) apply(x uint64) uint64 {
	var y uint64
	for p := range t {
		y ^= t[p][x&15]
		x >>= 4
	}
	return y
}

// Word implements SeedSource: 64 consecutive stream bits packed into one
// word.
func (s *AGHPSource) Word(i uint64) uint64 {
	var w [1]uint64
	s.Fill(w[:], i)
	return w[0]
}

// Fill implements SeedSource: one seek positions the powering sequence
// (none when the fill continues the previous one), then every word costs
// 32 table lookups.
func (s *AGHPSource) Fill(dst []uint64, off uint64) {
	if len(dst) == 0 {
		return
	}
	cur := s.seek(off)
	for k := range dst {
		var w, next uint64
		for p := range s.word {
			v := cur & 15
			w ^= s.word[p][v]
			next ^= s.step[p][v]
			cur >>= 4
		}
		dst[k], cur = w, next
	}
	s.nextIdx, s.nextCur = off+uint64(len(dst)), cur
}

// seek returns the running power at word off: the memo when the fill
// continues the previous one, the memo times a^(64·d) when it lies d
// words ahead below aghpWrap, else a^(64·off+1) from scratch.
func (s *AGHPSource) seek(off uint64) uint64 {
	switch {
	case off == s.nextIdx:
		return s.nextCur
	case s.seekable && off > s.nextIdx && off < aghpWrap:
		if d := off - s.nextIdx; d != s.stepD {
			s.stepD, s.stepMul = d, s.pow(64*d)
		}
		return gfMul64(s.nextCur, s.stepMul)
	}
	s.seekable = off < aghpWrap
	return s.pow(64*off + 1)
}

// pow returns a^e, one multiply per set bit of e.
func (s *AGHPSource) pow(e uint64) uint64 {
	r := uint64(1)
	for ; e != 0; e &= e - 1 {
		r = gfMul64(r, s.pow2[bits.TrailingZeros64(e)])
	}
	return r
}
