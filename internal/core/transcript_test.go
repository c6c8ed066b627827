package core

import (
	"math/rand"
	"testing"
	"testing/quick"

	"mpic/internal/bitstring"
)

func mkChunk(index int, syms ...bitstring.Symbol) ChunkRecord {
	return ChunkRecord{Index: index, Syms: syms}
}

func TestTranscriptAppendLen(t *testing.T) {
	tr := NewTranscript(0, 0)
	if tr.Len() != 0 {
		t.Fatal("new transcript not empty")
	}
	tr.Append(mkChunk(1, bitstring.Sym0, bitstring.Sym1))
	tr.Append(mkChunk(2, bitstring.Silence))
	if tr.Len() != 2 {
		t.Fatalf("Len = %d, want 2", tr.Len())
	}
	if tr.Chunk(0).Index != 1 || tr.Chunk(1).Index != 2 {
		t.Error("chunk indices wrong")
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
	tr.Append(mkChunk(1, bitstring.Sym0))
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
		tr.Append(mkChunk(i, bitstring.Sym1, bitstring.Sym0, bitstring.Silence))
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
	tr.Append(mkChunk(1, bitstring.Sym1))
	tr.Append(mkChunk(2, bitstring.Sym0))
	tr.TruncateTo(1)
	tr.Append(mkChunk(2, bitstring.Sym1)) // re-simulated with new content
	other := NewTranscript(0, 0)
	other.Append(mkChunk(1, bitstring.Sym1))
	other.Append(mkChunk(2, bitstring.Sym1))
	if !tr.Equal(other) {
		t.Fatal("transcript after truncate+append differs from fresh build")
	}
}

func TestCommonPrefixChunks(t *testing.T) {
	a := NewTranscript(0, 0)
	b := NewTranscript(0, 0)
	for i := 1; i <= 4; i++ {
		a.Append(mkChunk(i, bitstring.Sym0))
	}
	for i := 1; i <= 3; i++ {
		b.Append(mkChunk(i, bitstring.Sym0))
	}
	if got := CommonPrefixChunks(a, b); got != 3 {
		t.Errorf("prefix of strict-prefix pair = %d, want 3", got)
	}
	b.Append(mkChunk(4, bitstring.Sym1)) // diverging content
	if got := CommonPrefixChunks(a, b); got != 3 {
		t.Errorf("prefix with divergent chunk 4 = %d, want 3", got)
	}
	empty := NewTranscript(0, 0)
	if CommonPrefixChunks(a, empty) != 0 {
		t.Error("prefix with empty transcript != 0")
	}
}

func TestChunkEqualVariants(t *testing.T) {
	a := mkChunk(1, bitstring.Sym0, bitstring.Sym1)
	if !chunkEqual(&a, &a) {
		t.Error("chunk not equal to itself")
	}
	b := mkChunk(2, bitstring.Sym0, bitstring.Sym1)
	if chunkEqual(&a, &b) {
		t.Error("different indices compare equal")
	}
	c := mkChunk(1, bitstring.Sym0)
	if chunkEqual(&a, &c) {
		t.Error("different lengths compare equal")
	}
	d := mkChunk(1, bitstring.Sym0, bitstring.Silence)
	if chunkEqual(&a, &d) {
		t.Error("different symbols compare equal")
	}
}

// Property: the cached bit encoding always matches a from-scratch
// rebuild, through arbitrary append/truncate sequences.
func TestTranscriptBitsConsistencyProperty(t *testing.T) {
	f := func(seed int64, opsRaw []byte) bool {
		rng := rand.New(rand.NewSource(seed))
		tr := NewTranscript(0, 0)
		var chunks []ChunkRecord
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
				rec := ChunkRecord{Index: len(chunks) + 1, Syms: syms}
				tr.Append(rec)
				chunks = append(chunks, rec)
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
	a.Append(mkChunk(1, bitstring.Sym0, bitstring.Sym0))
	b := NewTranscript(0, 0)
	b.Append(mkChunk(1, bitstring.Sym0, bitstring.Sym0))
	b.Append(mkChunk(2, bitstring.Sym0, bitstring.Sym0))
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
