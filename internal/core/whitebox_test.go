package core

import (
	"math/rand"
	"testing"

	"mpic/internal/bitstring"
	"mpic/internal/graph"
)

// TestWhiteBoxHitRateTracksTau: the collision attacker's hit rate must
// scale like 2·2^-τ (two candidate corruptions, each colliding with
// probability 2^-τ under fresh seeds) — the quantitative heart of the
// Section 6.1 argument.
func TestWhiteBoxHitRateTracksTau(t *testing.T) {
	g := graph.Line(4)
	rates := map[int]float64{}
	for _, tau := range []int{2, 8} {
		tried, landed := 0, 0
		for trial := int64(0); trial < 6; trial++ {
			params := quickParams(Alg1, g, trial)
			params.HashBits = tau
			res, err := Run(Options{
				Protocol:     quickProto(g, trial),
				Params:       params,
				WhiteBoxRate: 0.05,
			})
			if err != nil {
				t.Fatal(err)
			}
			if res.WhiteBox == nil {
				t.Fatal("WhiteBox stats missing")
			}
			tried += res.WhiteBox.Tried
			landed += res.WhiteBox.Landed
		}
		if tried == 0 {
			t.Fatalf("τ=%d: attacker inspected nothing", tau)
		}
		rates[tau] = float64(landed) / float64(tried)
	}
	// τ=2 expects ~0.44 (1-(1-1/4)^2 plus near-collisions); τ=8 expects
	// ~0.008. Demand an order of magnitude between them.
	if rates[2] < 0.2 {
		t.Errorf("τ=2 hit rate %.4f, expected around 0.4", rates[2])
	}
	if rates[8] > 0.05 {
		t.Errorf("τ=8 hit rate %.4f, expected below 0.05", rates[8])
	}
	if rates[2] < 10*rates[8] {
		t.Errorf("hit rates τ=2:%.4f τ=8:%.4f do not separate by ~2^6", rates[2], rates[8])
	}
}

// TestWhiteBoxLandedCorruptionsAreUndetected: every landed corruption
// must survive the immediately following consistency check — that is the
// attacker's firing condition. We verify it indirectly: with the oracle
// on, each landed corruption produces at least one undetected-mismatch
// iteration (a counted hash collision).
func TestWhiteBoxLandedCorruptionsAreUndetected(t *testing.T) {
	g := graph.Line(4)
	params := quickParams(Alg1, g, 3)
	params.HashBits = 3 // generous collision rate so the test is fast
	res, err := Run(Options{Protocol: quickProto(g, 3), Params: params, WhiteBoxRate: 0.05})
	if err != nil {
		t.Fatal(err)
	}
	if res.WhiteBox.Landed == 0 {
		t.Skip("attacker found no collision this seed; covered by the rate test")
	}
	if res.Metrics.HashCollisions == 0 {
		t.Fatalf("%d landed corruptions but oracle saw no undetected mismatch", res.WhiteBox.Landed)
	}
}

// TestWhiteBoxRespectsBudget: the attacker's corruptions stay within its
// rate budget.
func TestWhiteBoxRespectsBudget(t *testing.T) {
	g := graph.Line(4)
	params := quickParams(Alg1, g, 4)
	params.HashBits = 2
	res, err := Run(Options{Protocol: quickProto(g, 4), Params: params, WhiteBoxRate: 0.01})
	if err != nil {
		t.Fatal(err)
	}
	allowance := 0.01*float64(res.Metrics.CC) + 1
	if float64(res.Metrics.TotalCorruptions()) > allowance {
		t.Fatalf("attacker spent %d corruptions with allowance %.0f",
			res.Metrics.TotalCorruptions(), allowance)
	}
}

// TestWhiteBoxPredictsPartyHash pins the attacker's seed-block choice: the
// hash futureHash predicts for the next check must be the one the party's
// own hasher computes there once the chunk lands in the transcript, in
// both hash modes. With R = 2 the epoch case crosses refresh boundaries,
// so a prediction made on the wrong epoch's block would show up here.
func TestWhiteBoxPredictsPartyHash(t *testing.T) {
	g := graph.Line(3)
	for _, tc := range []struct {
		name string
		env  *env
	}{
		{"legacy", testEnv(t, g)},
		{"epoch-r2", testEnvEpoch(t, g, 2)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			p := newParty(tc.env, 1)
			w := newWhiteBoxAttacker(tc.env, []*party{p}, 0)
			rng := rand.New(rand.NewSource(12))
			want := make([]uint64, len(p.links))
			p.prepareIteration(0)
			for it := 0; it < 5; it++ {
				for port, ls := range p.links {
					ls.simChunk = ls.T.Len() + 1
					ls.pending = ls.pending[:0]
					for i := 0; i < 4; i++ {
						ls.pending = append(ls.pending, bitstring.Symbol(rng.Intn(3)))
					}
					last := len(ls.pending) - 1
					sym := bitstring.Symbol(rng.Intn(3))
					want[port] = w.futureHash(ls, ls.pending, last, sym, it+1)
					syms := append([]bitstring.Symbol(nil), ls.pending...)
					syms[last] = sym
					ls.T.Append(syms)
				}
				p.prepareIteration(it + 1)
				for port, ls := range p.links {
					if got := ls.h.HashPrefix(ls.T.Len(), 1); got != want[port] {
						t.Fatalf("it=%d port=%d: party hashes %#x, attacker predicted %#x", it+1, port, got, want[port])
					}
				}
			}
		})
	}
}
