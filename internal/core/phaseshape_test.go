package core

import (
	"math/rand"
	"testing"

	"mpic/internal/adversary"
	"mpic/internal/bitstring"
	"mpic/internal/channel"
	"mpic/internal/graph"
	"mpic/internal/network"
	"mpic/internal/protocol"
	"mpic/internal/trace"
)

// shapePin is what TestRunPhaseShapesPinned fixes for one run: the
// per-phase CC, the corruptions by kind, the iteration count and G*.
type shapePin struct {
	succ        bool
	iters       int
	gstar       int
	ccPhase     [trace.NumPhases]int64
	corruptions [4]int64
}

func pinOf(res *Result) shapePin {
	return shapePin{res.Success, res.Iterations, res.GStar, res.Metrics.CCPhase, res.Metrics.Corruptions}
}

// TestRunPhaseShapesPinned pins fixed-seed runs whose phase layouts the
// other pins never reach: a star rooted at its centre (BFS depth 1, so no
// flag-passing rounds), flag passing and rewind both ablated, an
// Algorithm A exchange run under the white-box attacker, and a run on
// the virtual-time path with delays and network faults. Each pins where
// the run spent its communication phase by phase, so a change to how the
// run loop walks the layout must leave every phase's accounting intact.
func TestRunPhaseShapesPinned(t *testing.T) {
	noisy := func(rate float64, seed int64) adversary.Adversary {
		return adversary.NewRandomRate(rate, rand.New(rand.NewSource(seed)))
	}
	cases := []struct {
		name string
		opts func() Options
		want shapePin
	}{
		{"star-centre", func() Options {
			g := graph.Star(6)
			params := ParamsFor(Alg1, g)
			params.IterFactor = 10
			params.CRSKey = 21
			return Options{Protocol: protocol.NewRandom(g, 90, 0.5, 5, nil), Params: params, Adversary: noisy(0.001, 8)}
		}, shapePin{true, 78, 20, [trace.NumPhases]int64{0, 18720, 780, 1228, 65}, [4]int64{0, 10, 8, 1}}},
		{"no-flag-no-rewind", func() Options {
			g := graph.Ring(5)
			params := ParamsFor(Alg1, g)
			params.IterFactor = 10
			params.CRSKey = 22
			params.DisableFlagPassing = true
			params.DisableRewind = true
			return Options{Protocol: protocol.NewRandom(g, 90, 0.5, 6, nil), Params: params, Adversary: noisy(0.0005, 9)}
		}, shapePin{true, 20, 20, [trace.NumPhases]int64{0, 4800, 0, 438, 0}, [4]int64{0, 0, 2, 0}}},
		{"algA-whitebox", func() Options {
			g := graph.Line(4)
			params := ParamsFor(AlgA, g)
			params.IterFactor = 10
			params.HashBits = 4
			params.CRSKey = 23
			return Options{Protocol: protocol.NewRandom(g, 80, 0.5, 7, nil), Params: params, WhiteBoxRate: 0.01}
		}, shapePin{false, 170, 1, [trace.NumPhases]int64{1488, 12240, 1020, 1150, 0}, [4]int64{0, 36, 34, 0}}},
		{"des-netfaults", func() Options {
			g := graph.Ring(5)
			params := ParamsFor(Alg1, g)
			params.IterFactor = 10
			params.CRSKey = 24
			return Options{Protocol: protocol.NewRandom(g, 90, 0.5, 8, nil), Params: params,
				Delay:     network.Lognormal{Median: 0.3, Sigma: 0.3, Seed: 3},
				NetFaults: &network.FaultSchedule{Seed: 4, SpikeRate: 0.0005, Stragglers: 1, StragglerDelay: 0.1}}
		}, shapePin{true, 24, 22, [trace.NumPhases]int64{0, 5760, 192, 507, 4}, [4]int64{0, 0, 5, 2}}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			res, err := Run(tc.opts())
			if err != nil {
				t.Fatal(err)
			}
			if got := pinOf(res); got != tc.want {
				t.Fatalf("phase-shape run drifted:\n got %#v\nwant %#v", got, tc.want)
			}
		})
	}
}

// phaseCounter counts every non-silent symbol by the phase the public
// oracle names for its round, and corrupts nothing.
type phaseCounter struct {
	oracle adversary.PhaseOracle
	counts [trace.NumPhases]int64
}

func (c *phaseCounter) Corrupt(round int, _ channel.Link, sent bitstring.Symbol) bitstring.Symbol {
	if sent != bitstring.Silence {
		ph, _ := c.oracle(round)
		c.counts[ph]++
	}
	return sent
}

// TestPhaseOracleAgreesWithRunLoop checks RunInfo.PhaseOracle against the
// run's own per-phase CC: an adversary counting every transmitted symbol
// by the oracle's phase must see exactly Metrics.CCPhase, for CRS and
// exchange runs and with flag passing and rewind ablated.
func TestPhaseOracleAgreesWithRunLoop(t *testing.T) {
	cases := []struct {
		name   string
		scheme Scheme
		g      *graph.Graph
		ablate func(*Params)
	}{
		{"crs", Alg1, graph.Ring(5), func(*Params) {}},
		{"exchange", AlgA, graph.Line(4), func(*Params) {}},
		{"star-centre", Alg1, graph.Star(5), func(*Params) {}},
		{"no-flag", AlgA, graph.Line(5), func(p *Params) { p.DisableFlagPassing = true }},
		{"no-rewind", Alg1, graph.Ring(5), func(p *Params) { p.DisableRewind = true }},
		{"no-flag-no-rewind", AlgB, graph.Ring(4), func(p *Params) { p.DisableFlagPassing, p.DisableRewind = true, true }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			params := quickParams(tc.scheme, tc.g, 31)
			tc.ablate(&params)
			var c *phaseCounter
			res, err := Run(Options{Protocol: quickProto(tc.g, 31), Params: params,
				AdversaryFactory: func(info RunInfo) adversary.Adversary {
					c = &phaseCounter{oracle: info.PhaseOracle}
					return c
				}})
			if err != nil {
				t.Fatal(err)
			}
			if c.counts != res.Metrics.CCPhase {
				t.Fatalf("oracle counts %v, run's CCPhase %v", c.counts, res.Metrics.CCPhase)
			}
			if tc.scheme != Alg1 && c.counts[trace.PhaseExchange] == 0 {
				t.Fatal("vacuous: exchange run transmitted nothing in the exchange phase")
			}
		})
	}
}
