package gridspec

import (
	"bytes"
	"encoding/json"
	"math"
	"testing"
)

// FuzzGridBuild feeds request bodies through the grid service's parse
// path — a DisallowUnknownFields decode, Normalize, Build — and checks
// the contract: the result is an error or a grid, every cell of a grid
// has at least one party and a finite, non-negative rate, the grid
// carries the normalized spec's fingerprint, and nothing panics. Plain `go test` replays the seed
// corpus in testdata/fuzz/FuzzGridBuild; `make fuzz` explores further.
func FuzzGridBuild(f *testing.F) {
	f.Fuzz(func(t *testing.T, body []byte) {
		var g Grid
		dec := json.NewDecoder(bytes.NewReader(body))
		dec.DisallowUnknownFields()
		if err := dec.Decode(&g); err != nil {
			return
		}
		g = g.Normalize()
		grid, err := g.Build()
		if err != nil {
			return
		}
		for i, c := range grid.Cells {
			if c.Key.N < 1 {
				t.Fatalf("cell %d has key N=%d", i, c.Key.N)
			}
			if r := c.Key.Rate; math.IsNaN(r) || math.IsInf(r, 0) || r < 0 {
				t.Fatalf("cell %d has key rate %g", i, r)
			}
		}
		if want := g.Normalize().Spec(); grid.Spec != want {
			t.Fatalf("grid spec %q, want %q", grid.Spec, want)
		}
	})
}
