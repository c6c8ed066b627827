package hashing

import (
	"math/bits"

	"mpic/internal/bitstring"
)

// InnerProductHash is the hash family of Definition 2.2: for input x of
// length L and seed s of length τ·L, output bit j is the GF(2) inner
// product ⟨x, s[jL+1 .. (j+1)L]⟩. Because unused input positions are zero,
// the family satisfies h(x) = h(x ◦ 0^k) — the padding property the paper
// relies on when parties hash prefixes of different lengths (footnote 11).
//
// MaxLen fixes L (in bits) for the whole protocol so that both endpoints
// slice identical seed regions; Tau is the output length τ in bits
// (Tau <= 64 so an output packs into a uint64).
type InnerProductHash struct {
	Tau    int
	MaxLen int // L, in bits; rounded up to a multiple of 64 internally
}

// NewInnerProductHash returns a hash with output length tau (1..64 bits)
// over inputs of at most maxLen bits.
func NewInnerProductHash(tau, maxLen int) *InnerProductHash {
	if tau < 1 {
		tau = 1
	}
	if tau > 64 {
		tau = 64
	}
	if maxLen < 1 {
		maxLen = 1
	}
	return &InnerProductHash{Tau: tau, MaxLen: maxLen}
}

// wordsPerRow is the number of 64-bit seed words per output bit.
func (h *InnerProductHash) wordsPerRow() uint64 {
	return uint64((h.MaxLen + 63) / 64)
}

// SeedWords returns the total number of seed words one hash evaluation
// consumes; seed blocks for distinct (iteration, link, slot) triples are
// spaced this far apart.
func (h *InnerProductHash) SeedWords() uint64 {
	return uint64(h.Tau) * h.wordsPerRow()
}

// Hash evaluates the hash on x (padded with zeros up to MaxLen) using the
// seed words src.Word(off), src.Word(off+1), ... Bits of x beyond MaxLen
// rounded up to whole words are ignored; callers size MaxLen so that
// never happens.
func (h *InnerProductHash) Hash(x *bitstring.BitVec, src SeedSource, off uint64) uint64 {
	return h.HashPrefix(x, x.Len(), src, off)
}

// HashPrefix evaluates the hash on the first nbits bits of x (then padded
// with zeros up to MaxLen). It lets transcript prefixes be hashed without
// copying.
//
// This is the reference evaluator: it pulls seed words through the
// SeedSource interface one at a time. The protocol's hot path goes through
// Checkpointed, whose output is bit-identical (a property the golden
// equivalence tests pin down); this path remains for one-shot evaluations
// such as the white-box attacker's lookahead, and as the independent
// oracle those tests compare against.
func (h *InnerProductHash) HashPrefix(x *bitstring.BitVec, nbits int, src SeedSource, off uint64) uint64 {
	if nbits > x.Len() {
		nbits = x.Len()
	}
	if nbits < 0 {
		nbits = 0
	}
	// Bits past the row length meet no seed: the hash is that of the
	// first 64·row bits, so the tail mask is taken at the clamped length.
	row := h.wordsPerRow()
	nbits = min(nbits, int(64*row))
	nw := uint64((nbits + 63) / 64)
	var tailMask uint64 = ^uint64(0)
	if r := uint(nbits & 63); r != 0 {
		tailMask = (uint64(1) << r) - 1
	}
	var out uint64
	for j := uint64(0); j < uint64(h.Tau); j++ {
		base := off + j*row
		var acc uint64
		for i := uint64(0); i < nw; i++ {
			w := x.Word(int(i))
			if i == nw-1 {
				w &= tailMask
			}
			acc ^= w & src.Word(base+i)
		}
		// Fold the 64 accumulated bit-products into one parity bit.
		acc ^= acc >> 32
		acc ^= acc >> 16
		acc ^= acc >> 8
		acc ^= acc >> 4
		acc ^= acc >> 2
		acc ^= acc >> 1
		out |= (acc & 1) << j
	}
	return out
}

// HashUint hashes the width low-order bits of v (width at most 64) — the
// meeting-point counter k, which the parties compare by hash (Section
// 3.1). It equals Hash over a BitVec holding those bits, without
// building one: the input is a single word, so output bit j is the
// parity of v & src.Word(off + j·row). Each call reads τ seed words and
// allocates nothing.
func (h *InnerProductHash) HashUint(v uint64, width int, src SeedSource, off uint64) uint64 {
	if width <= 0 {
		return 0
	}
	if width < 64 {
		v &= 1<<uint(width) - 1
	}
	row := h.wordsPerRow()
	var out uint64
	for j := 0; j < h.Tau; j++ {
		out |= uint64(bits.OnesCount64(v&src.Word(off+uint64(j)*row))&1) << j
	}
	return out
}
