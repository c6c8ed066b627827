package core

import (
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"mpic/internal/bitstring"
)

func mkChunk(syms ...bitstring.Symbol) []bitstring.Symbol { return syms }

func TestTranscriptAppendLen(t *testing.T) {
	tr := NewTranscript(0, 0)
	if tr.Len() != 0 {
		t.Fatal("new transcript not empty")
	}
	tr.Append(mkChunk(bitstring.Sym0, bitstring.Sym1))
	tr.Append(mkChunk(bitstring.Silence))
	if tr.Len() != 2 {
		t.Fatalf("Len = %d, want 2", tr.Len())
	}
	if !slices.Equal(tr.Chunk(0), mkChunk(bitstring.Sym0, bitstring.Sym1)) || !slices.Equal(tr.Chunk(1), mkChunk(bitstring.Silence)) {
		t.Errorf("chunks read back %v, %v", tr.Chunk(0), tr.Chunk(1))
	}
	// Chunk i encodes its number i+1 in its first chunkIndexBits bits.
	if got := tr.Bits().Get(tr.PrefixBits(1) + 1); got != 1 {
		t.Error("chunk 2 does not encode its number")
	}
	// Encoded bits: 32 (index) + 2 per symbol.
	if got := tr.PrefixBits(1); got != 32+4 {
		t.Errorf("PrefixBits(1) = %d, want 36", got)
	}
	if got := tr.PrefixBits(2); got != 36+32+2 {
		t.Errorf("PrefixBits(2) = %d, want 70", got)
	}
	if tr.Bits().Len() != 70 {
		t.Errorf("Bits().Len() = %d, want 70", tr.Bits().Len())
	}
}

func TestTranscriptPrefixBitsClamps(t *testing.T) {
	tr := NewTranscript(0, 0)
	tr.Append(mkChunk(bitstring.Sym0))
	if tr.PrefixBits(-1) != 0 {
		t.Error("negative prefix not clamped to 0")
	}
	if tr.PrefixBits(99) != tr.Bits().Len() {
		t.Error("oversized prefix not clamped to full length")
	}
}

func TestTranscriptTruncate(t *testing.T) {
	tr := NewTranscript(0, 0)
	for i := 1; i <= 5; i++ {
		tr.Append(mkChunk(bitstring.Sym1, bitstring.Sym0, bitstring.Silence))
	}
	bitsAt3 := tr.PrefixBits(3)
	tr.TruncateTo(3)
	if tr.Len() != 3 {
		t.Fatalf("Len after truncate = %d, want 3", tr.Len())
	}
	if tr.Bits().Len() != bitsAt3 {
		t.Fatalf("bits after truncate = %d, want %d", tr.Bits().Len(), bitsAt3)
	}
	// Truncate to larger and to negative are no-op / clamp.
	tr.TruncateTo(10)
	if tr.Len() != 3 {
		t.Error("truncate to larger changed length")
	}
	tr.TruncateTo(-1)
	if tr.Len() != 0 {
		t.Error("truncate to negative did not clamp to 0")
	}
}

func TestTranscriptAppendAfterTruncate(t *testing.T) {
	tr := NewTranscript(0, 0)
	tr.Append(mkChunk(bitstring.Sym1))
	tr.Append(mkChunk(bitstring.Sym0))
	tr.TruncateTo(1)
	tr.Append(mkChunk(bitstring.Sym1)) // re-simulated with new content
	other := NewTranscript(0, 0)
	other.Append(mkChunk(bitstring.Sym1))
	other.Append(mkChunk(bitstring.Sym1))
	if !tr.Equal(other) {
		t.Fatal("transcript after truncate+append differs from fresh build")
	}
}

func TestCommonPrefixChunks(t *testing.T) {
	a := NewTranscript(0, 0)
	b := NewTranscript(0, 0)
	for i := 1; i <= 4; i++ {
		a.Append(mkChunk(bitstring.Sym0))
	}
	for i := 1; i <= 3; i++ {
		b.Append(mkChunk(bitstring.Sym0))
	}
	if got := CommonPrefixChunks(a, b); got != 3 {
		t.Errorf("prefix of strict-prefix pair = %d, want 3", got)
	}
	b.Append(mkChunk(bitstring.Sym1)) // diverging content
	if got := CommonPrefixChunks(a, b); got != 3 {
		t.Errorf("prefix with divergent chunk 4 = %d, want 3", got)
	}
	empty := NewTranscript(0, 0)
	if CommonPrefixChunks(a, empty) != 0 {
		t.Error("prefix with empty transcript != 0")
	}
}

// TestChunkEqualVariants compares one-chunk transcripts: a chunk agrees
// with an equal copy and differs from one of another length or another
// symbol. (A chunk's number is its position, so two chunks compared at
// one position cannot differ in number.)
func TestChunkEqualVariants(t *testing.T) {
	one := func(syms ...bitstring.Symbol) *Transcript {
		tr := NewTranscript(0, 0)
		tr.Append(syms)
		return tr
	}
	a := one(bitstring.Sym0, bitstring.Sym1)
	if CommonPrefixChunks(a, a) != 1 || CommonPrefixChunks(a, one(bitstring.Sym0, bitstring.Sym1)) != 1 {
		t.Error("chunk not equal to itself")
	}
	if CommonPrefixChunks(a, one(bitstring.Sym0)) != 0 {
		t.Error("different lengths compare equal")
	}
	if CommonPrefixChunks(a, one(bitstring.Sym0, bitstring.Silence)) != 0 {
		t.Error("different symbols compare equal")
	}
	// Equal symbols split differently across chunks are different chunks.
	b := one(bitstring.Sym0)
	b.Append(mkChunk(bitstring.Sym1))
	if CommonPrefixChunks(a, b) != 0 {
		t.Error("different chunk boundaries compare equal")
	}
}

// Property: the cached bit encoding always matches a from-scratch
// rebuild, through arbitrary append/truncate sequences.
func TestTranscriptBitsConsistencyProperty(t *testing.T) {
	f := func(seed int64, opsRaw []byte) bool {
		rng := rand.New(rand.NewSource(seed))
		tr := NewTranscript(0, 0)
		var chunks [][]bitstring.Symbol
		for _, op := range opsRaw {
			if op%3 == 0 && len(chunks) > 0 {
				cut := rng.Intn(len(chunks) + 1)
				tr.TruncateTo(cut)
				chunks = chunks[:cut]
			} else {
				syms := make([]bitstring.Symbol, rng.Intn(4)+1)
				for i := range syms {
					syms[i] = bitstring.Symbol(rng.Intn(3))
				}
				tr.Append(syms)
				chunks = append(chunks, syms)
			}
		}
		rebuilt := NewTranscript(0, 0)
		for _, rec := range chunks {
			rebuilt.Append(rec)
		}
		return tr.Equal(rebuilt) && tr.Bits().Equal(rebuilt.Bits())
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// TestTranscriptHashDistinguishesLengths: the chunk-index encoding makes
// prefixes of different chunk counts hash differently despite the
// zero-padding property (footnote 11's requirement).
func TestTranscriptLengthsEncodeDifferently(t *testing.T) {
	a := NewTranscript(0, 0)
	a.Append(mkChunk(bitstring.Sym0, bitstring.Sym0))
	b := NewTranscript(0, 0)
	b.Append(mkChunk(bitstring.Sym0, bitstring.Sym0))
	b.Append(mkChunk(bitstring.Sym0, bitstring.Sym0))
	// b's encoding must not be a's encoding followed by zeros: the chunk
	// index 2 contributes a nonzero bit.
	aBits := a.Bits()
	bBits := b.Bits()
	diff := false
	for i := aBits.Len(); i < bBits.Len(); i++ {
		if bBits.Get(i) != 0 {
			diff = true
			break
		}
	}
	if !diff {
		t.Fatal("longer transcript encodes as zero-padded shorter one: hashes would collide")
	}
}

// TestTranscriptAppendCopies: Append copies the caller's symbols, so
// reusing the slice afterwards (as the engine reuses each link's pending
// buffer every simulation phase) changes neither the chunk nor the
// encoding. Before transcripts kept one symbol slab, Append aliased the
// slice and this failed.
func TestTranscriptAppendCopies(t *testing.T) {
	buf := mkChunk(bitstring.Sym0, bitstring.Sym1, bitstring.Silence)
	tr := NewTranscript(0, 0)
	tr.Append(buf)
	want := tr.Bits().Clone()
	buf[0], buf[2] = bitstring.Sym1, bitstring.Sym0
	if got := tr.Chunk(0); !slices.Equal(got, mkChunk(bitstring.Sym0, bitstring.Sym1, bitstring.Silence)) {
		t.Errorf("Chunk(0) = %v after the caller reused its slice", got)
	}
	if !tr.Bits().Equal(want) {
		t.Error("encoding changed after the caller reused its slice")
	}
}

// TestTranscriptChunkAfterTruncate: a chunk re-simulated after a rewind
// reads back its new symbols, both where the old chunk stood and past it,
// and chunks before the cut keep theirs. (Passes before the slab too.)
func TestTranscriptChunkAfterTruncate(t *testing.T) {
	tr := NewTranscript(0, 0)
	tr.Append(mkChunk(bitstring.Sym1, bitstring.Sym1))
	tr.Append(mkChunk(bitstring.Sym0, bitstring.Sym0, bitstring.Sym0))
	tr.Append(mkChunk(bitstring.Silence))
	tr.TruncateTo(1)
	tr.Append(mkChunk(bitstring.Silence))
	tr.Append(mkChunk(bitstring.Sym1, bitstring.Sym0, bitstring.Sym1, bitstring.Sym0))
	for i, want := range [][]bitstring.Symbol{
		{bitstring.Sym1, bitstring.Sym1},
		{bitstring.Silence},
		{bitstring.Sym1, bitstring.Sym0, bitstring.Sym1, bitstring.Sym0},
	} {
		if got := tr.Chunk(i); !slices.Equal(got, want) {
			t.Errorf("Chunk(%d) = %v, want %v", i, got, want)
		}
	}
	if got, want := tr.PrefixBits(3), 3*chunkIndexBits+2*7; got != want || tr.Bits().Len() != want {
		t.Errorf("PrefixBits(3) = %d, Bits().Len() = %d, want %d", got, tr.Bits().Len(), want)
	}
}
