package core

import (
	"slices"

	"mpic/internal/bitstring"
)

// chunkIndexBits is the width used to encode a chunk's number into the
// hashed transcript. Appending the chunk number makes transcripts of
// different lengths hash differently despite the inner-product hash's
// h(x) = h(x◦0) padding behavior (footnote 11).
const chunkIndexBits = 32

// Transcript is one endpoint's record of a link: the paper's T_{u,v}, a
// sequence of simulated chunks. Chunk i (0-based) is chunk number i+1 and
// holds one symbol per slot of that chunk on the link, in the chunk's slot
// order: for slots where the endpoint was the sender, the bit it sent; for
// receiver slots, the (possibly corrupted, possibly Silence) symbol it
// received. Every chunk's symbols sit in one slab, so a chunk costs its
// symbols and one 4-byte end. The transcript also caches the binary
// encoding hashed by the consistency checks: per chunk, its number in
// chunkIndexBits bits, then two bits per symbol.
type Transcript struct {
	syms []bitstring.Symbol // every chunk's symbols, in chunk order
	ends []int32            // ends[i] = symbols in the first i chunks; ends[0] = 0
	bits *bitstring.BitVec
}

// NewTranscript returns an empty transcript with room for chunkHint
// chunks holding symHint symbols in all. The engine passes |Π|+2 chunks
// holding the link's slots over Π plus two padding chunks, so a run's
// transcripts append without growing until they pass that length; a
// transcript that outgrows its hint still appends.
func NewTranscript(chunkHint, symHint int) *Transcript {
	return &Transcript{
		syms: make([]bitstring.Symbol, 0, symHint),
		ends: append(make([]int32, 0, chunkHint+1), 0),
		bits: bitstring.NewBitVec(chunkIndexBits*chunkHint + 2*symHint),
	}
}

// Len returns |T| in chunks.
func (t *Transcript) Len() int { return len(t.ends) - 1 }

// Chunk returns the symbols of the i-th (0-based) chunk, chunk number
// i+1. The slice is a view into the transcript's slab: it stays valid
// only until the next Append or TruncateTo, and must not be modified.
func (t *Transcript) Chunk(i int) []bitstring.Symbol {
	return t.syms[t.ends[i]:t.ends[i+1]:t.ends[i+1]]
}

// Append adds chunk number Len()+1 with the given symbols, copying them:
// the caller may reuse syms afterwards.
func (t *Transcript) Append(syms []bitstring.Symbol) {
	t.syms = append(t.syms, syms...)
	t.ends = append(t.ends, int32(len(t.syms)))
	t.bits.AppendUint(uint64(t.Len()), chunkIndexBits)
	for _, s := range syms {
		t.bits.AppendSymbol(s)
	}
}

// TruncateTo rolls the transcript back to n chunks. Out-of-range
// arguments clamp rather than panic: n < 0 truncates to empty (rewind
// waves can legitimately ask for "one less than nothing" on an empty
// link) and n >= Len() is a no-op. Truncation propagates structurally to
// the cached bit encoding — any attached watermark (the incremental hash
// checkpoints) observes the rollback through bitstring.BitVec, with no
// further notification from this type.
func (t *Transcript) TruncateTo(n int) {
	if n < 0 {
		n = 0
	}
	if n >= t.Len() {
		return
	}
	t.syms = t.syms[:t.ends[n]]
	t.ends = t.ends[:n+1]
	t.bits.Truncate(t.PrefixBits(n))
}

// PrefixBits returns the encoded bit length of the first n chunks.
// Out-of-range arguments clamp: n < 0 reads as 0 (empty prefix) and
// n > Len() reads as Len() — meeting points computed from a counter that
// outruns a freshly truncated transcript must still hash a well-defined
// prefix.
func (t *Transcript) PrefixBits(n int) int {
	n = max(0, min(n, t.Len()))
	return chunkIndexBits*n + 2*int(t.ends[n])
}

// Bits exposes the cached encoding for hashing.
func (t *Transcript) Bits() *bitstring.BitVec { return t.bits }

// CommonPrefixChunks returns the number of leading chunks on which two
// transcripts agree exactly — the oracle's G_{u,v} (Section 4.1).
func CommonPrefixChunks(a, b *Transcript) int {
	n := min(a.Len(), b.Len())
	for i := 0; i < n; i++ {
		if !slices.Equal(a.Chunk(i), b.Chunk(i)) {
			return i
		}
	}
	return n
}

// Equal reports whether two transcripts agree entirely.
func (t *Transcript) Equal(o *Transcript) bool {
	return t.Len() == o.Len() && CommonPrefixChunks(t, o) == t.Len()
}
