package core

import (
	"testing"

	"mpic/internal/graph"
)

func TestParamsForSchemes(t *testing.T) {
	g := graph.Clique(8) // m = 28, log2ceil = 5
	tests := []struct {
		scheme    Scheme
		wantChunk int
		wantHash  int
		wantRand  RandMode
	}{
		{Alg1, 5 * 28, 8, RandCRS},
		{AlgA, 5 * 28, 8, RandExchange},
		{AlgB, 5 * 28 * 5, 10, RandExchange},
		{AlgC, 5 * 28 * 3, 8, RandCRS},
	}
	for _, tt := range tests {
		t.Run(tt.scheme.String(), func(t *testing.T) {
			p := ParamsFor(tt.scheme, g)
			if p.ChunkBits != tt.wantChunk {
				t.Errorf("ChunkBits = %d, want %d", p.ChunkBits, tt.wantChunk)
			}
			if p.HashBits != tt.wantHash {
				t.Errorf("HashBits = %d, want %d", p.HashBits, tt.wantHash)
			}
			if p.Randomness != tt.wantRand {
				t.Errorf("Randomness = %v, want %v", p.Randomness, tt.wantRand)
			}
			if err := p.Validate(); err != nil {
				t.Errorf("preset does not validate: %v", err)
			}
		})
	}
}

func TestParamsForScaling(t *testing.T) {
	// Algorithm B's chunk and hash sizes must grow with log m.
	small := ParamsFor(AlgB, graph.Line(4))    // m=3
	large := ParamsFor(AlgB, graph.Clique(20)) // m=190, log=8
	if large.ChunkBits <= small.ChunkBits {
		t.Error("AlgB ChunkBits does not grow with m log m")
	}
	if large.HashBits <= small.HashBits {
		t.Error("AlgB HashBits does not grow with log m")
	}
	// Algorithm A's hash stays constant.
	if ParamsFor(AlgA, graph.Clique(20)).HashBits != ParamsFor(AlgA, graph.Line(4)).HashBits {
		t.Error("AlgA HashBits should be constant")
	}
}

func TestParamsValidate(t *testing.T) {
	p := Params{ChunkBits: 10, HashBits: 8}
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	if p.IterFactor != 100 || p.Randomness != RandCRS || p.SeedKind != SeedPRF {
		t.Error("defaults not filled")
	}
	if p.RSBlockN != 31 || p.RSBlockK != 11 {
		t.Error("RS defaults not filled")
	}

	bad := []Params{
		{ChunkBits: 0, HashBits: 8},
		{ChunkBits: 10, HashBits: 0},
		{ChunkBits: 10, HashBits: 65},
		{ChunkBits: 10, HashBits: 8, RSBlockN: 5, RSBlockK: 9},
		{ChunkBits: 10, HashBits: 8, EpochRefresh: -1},
		{ChunkBits: 10, HashBits: 8, HashMode: HashLegacy + 1},
	}
	for i, p := range bad {
		if err := p.Validate(); err == nil {
			t.Errorf("bad params %d validated", i)
		}
	}
}

func TestSchemeString(t *testing.T) {
	for s, want := range map[Scheme]string{
		Alg1: "Algorithm1", AlgA: "AlgorithmA", AlgB: "AlgorithmB",
		AlgC: "AlgorithmC", Scheme(0): "unknown",
	} {
		if s.String() != want {
			t.Errorf("Scheme(%d).String() = %q, want %q", s, s.String(), want)
		}
	}
}

func TestLog2Ceil(t *testing.T) {
	tests := []struct{ n, want int }{
		{0, 0}, {1, 0}, {2, 1}, {3, 2}, {4, 2}, {5, 3}, {8, 3}, {9, 4}, {1024, 10},
	}
	for _, tt := range tests {
		if got := Log2Ceil(tt.n); got != tt.want {
			t.Errorf("Log2Ceil(%d) = %d, want %d", tt.n, got, tt.want)
		}
	}
}
