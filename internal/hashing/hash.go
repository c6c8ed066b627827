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
// are ignored; callers size MaxLen so that never happens.
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
	row := h.wordsPerRow()
	nw := uint64((nbits + 63) / 64)
	if nw > row {
		nw = row
	}
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

// HashUint hashes a fixed-width unsigned value (used for the meeting-point
// counter k, which the parties compare by hash; see Section 3.1). Like
// HashPrefix this is the reference evaluator; HashWordCached is the
// allocation-free equivalent on the hot path.
func (h *InnerProductHash) HashUint(v uint64, width int, src SeedSource, off uint64) uint64 {
	x := bitstring.NewBitVec(width)
	x.AppendUint(v, width)
	return h.Hash(x, src, off)
}

// HashWordCached hashes the width low-order bits of v — the counter-hash
// fast path, equivalent to HashUint without building a BitVec. width must
// be at most 64.
func (h *InnerProductHash) HashWordCached(v uint64, width int, c *BlockCache) uint64 {
	if width <= 0 {
		return 0
	}
	if width < 64 {
		v &= 1<<uint(width) - 1
	} else {
		width = 64
	}
	xw := [1]uint64{v}
	return h.hashWords(xw[:], width, c)
}

// sweepBounds fixes the geometry every prefix sweep shares (the cached
// one-shot kernel here and the checkpointed incremental evaluator): the number of
// input words a sweep of nbits bits covers — clamped to the row length
// and the words actually present; missing trailing words are zero and
// contribute nothing — and the mask applied to the sweep's final word.
// Single-sourcing this is what keeps the evaluators bit-identical (the
// golden-equivalence contract) when masking or clamping rules change.
func (h *InnerProductHash) sweepBounds(nbits, words int) (nw int, tailMask uint64) {
	nw = (nbits + 63) / 64
	if row := int(h.wordsPerRow()); nw > row {
		nw = row
	}
	if nw > words {
		nw = words
	}
	tailMask = ^uint64(0)
	if r := uint(nbits & 63); r != 0 {
		tailMask = 1<<r - 1
	}
	return nw, tailMask
}

// foldParity folds each row accumulator to its parity bit with a
// popcount, packing output bit j from acc[j]. Shared by every evaluator
// for the same reason as sweepBounds.
func foldParity(acc []uint64) uint64 {
	var out uint64
	for j, a := range acc {
		out |= uint64(bits.OnesCount64(a)&1) << j
	}
	return out
}

// hashWords is the devirtualized inner-product sweep: all complete input
// words go through the dispatched τ-row kernel (see kernel.go), the final
// word is tail-masked and accumulated here so the kernels only ever see
// complete words, and each accumulator folds to its parity bit. Words of
// xw at positions >= ⌈nbits/64⌉ are ignored and missing trailing words
// are treated as zero (they contribute nothing to any inner product).
func (h *InnerProductHash) hashWords(xw []uint64, nbits int, c *BlockCache) uint64 {
	nw, tailMask := h.sweepBounds(nbits, len(xw))
	if nw == 0 {
		return 0
	}
	c.ensure(nw)
	tau := h.Tau
	buf := c.buf
	var acc [64]uint64
	kernelSweep(&acc, xw[:nw-1], buf, tau)
	w := xw[nw-1] & tailMask
	for j, sw := range buf[(nw-1)*tau : nw*tau] {
		acc[j] ^= w & sw
	}
	return foldParity(acc[:tau])
}
