package core

import (
	"mpic/internal/bitstring"
)

// chunkIndexBits is the width used to encode a chunk's number into the
// hashed transcript. Appending the chunk number makes transcripts of
// different lengths hash differently despite the inner-product hash's
// h(x) = h(x◦0) padding behavior (footnote 11).
const chunkIndexBits = 32

// ChunkRecord is one simulated chunk as observed by one endpoint of a
// link: for slots where the endpoint was the sender, the bit it sent; for
// receiver slots, the (possibly corrupted, possibly Silence) symbol it
// received.
type ChunkRecord struct {
	// Index is the chunk number (1-based; dummy chunks continue the
	// numbering past |Π|).
	Index int
	// Syms holds the observed symbol per slot, in the chunk's slot order.
	Syms []bitstring.Symbol
}

// Transcript is one endpoint's record of a link: the paper's T_{u,v}. It
// maintains the invariant chunks[i].Index == i+1 and caches the binary
// encoding hashed by the consistency checks.
type Transcript struct {
	chunks []ChunkRecord
	bits   *bitstring.BitVec
	offs   []int // offs[i] = encoded bit length of the first i chunks
}

// NewTranscript returns an empty transcript with room for chunkHint
// chunk records and bitHint encoded bits. The engine passes the same
// |Π|+2-chunk hint that sizes the link's prefix-hash stores
// (env.seedHintWords), so a run's transcripts append without growing; a
// transcript that outgrows its hint still appends.
func NewTranscript(chunkHint, bitHint int) *Transcript {
	return &Transcript{
		chunks: make([]ChunkRecord, 0, chunkHint),
		bits:   bitstring.NewBitVec(bitHint),
		offs:   append(make([]int, 0, chunkHint+1), 0),
	}
}

// Len returns |T| in chunks.
func (t *Transcript) Len() int { return len(t.chunks) }

// Chunk returns the i-th (0-based) chunk record.
func (t *Transcript) Chunk(i int) *ChunkRecord { return &t.chunks[i] }

// Append adds a chunk record. The record's index must continue the
// sequence; the engine always simulates chunk |T|+1.
func (t *Transcript) Append(rec ChunkRecord) {
	t.chunks = append(t.chunks, rec)
	t.bits.AppendUint(uint64(rec.Index), chunkIndexBits)
	for _, s := range rec.Syms {
		t.bits.AppendSymbol(s)
	}
	t.offs = append(t.offs, t.bits.Len())
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
	if n >= len(t.chunks) {
		return
	}
	t.chunks = t.chunks[:n]
	t.offs = t.offs[:n+1]
	t.bits.Truncate(t.offs[n])
}

// PrefixBits returns the encoded bit length of the first n chunks.
// Out-of-range arguments clamp: n < 0 reads as 0 (empty prefix) and
// n > Len() reads as Len() — meeting points computed from a counter that
// outruns a freshly truncated transcript must still hash a well-defined
// prefix.
func (t *Transcript) PrefixBits(n int) int {
	if n < 0 {
		n = 0
	}
	if n >= len(t.offs) {
		n = len(t.offs) - 1
	}
	return t.offs[n]
}

// Bits exposes the cached encoding for hashing.
func (t *Transcript) Bits() *bitstring.BitVec { return t.bits }

// CommonPrefixChunks returns the number of leading chunks on which two
// transcripts agree exactly — the oracle's G_{u,v} (Section 4.1).
func CommonPrefixChunks(a, b *Transcript) int {
	n := a.Len()
	if b.Len() < n {
		n = b.Len()
	}
	for i := 0; i < n; i++ {
		if !chunkEqual(&a.chunks[i], &b.chunks[i]) {
			return i
		}
	}
	return n
}

func chunkEqual(a, b *ChunkRecord) bool {
	if a.Index != b.Index || len(a.Syms) != len(b.Syms) {
		return false
	}
	for i := range a.Syms {
		if a.Syms[i] != b.Syms[i] {
			return false
		}
	}
	return true
}

// Equal reports whether two transcripts agree entirely.
func (t *Transcript) Equal(o *Transcript) bool {
	return t.Len() == o.Len() && CommonPrefixChunks(t, o) == t.Len()
}
