package core

import (
	"math/rand"
	"testing"

	"mpic/internal/adversary"
	"mpic/internal/bitstring"
	"mpic/internal/channel"
	"mpic/internal/graph"
	"mpic/internal/protocol"
	"mpic/internal/trace"
)

func quickProto(g *graph.Graph, seed int64) protocol.Protocol {
	return protocol.NewRandom(g, 15*g.N(), 0.5, seed, nil)
}

func quickParams(s Scheme, g *graph.Graph, seed int64) Params {
	p := ParamsFor(s, g)
	p.CRSKey = seed
	p.IterFactor = 30
	return p
}

func TestRunValidation(t *testing.T) {
	g := graph.Line(3)
	if _, err := Run(Options{}); err == nil {
		t.Error("nil protocol accepted")
	}
	p := quickParams(Alg1, g, 1)
	p.ChunkBits = 0
	if _, err := Run(Options{Protocol: quickProto(g, 1), Params: p}); err == nil {
		t.Error("invalid params accepted")
	}
	single := graph.Line(1)
	sp := protocol.NewRandom(graph.Line(2), 10, 0.5, 1, nil)
	_ = single
	_ = sp
	// Schedule on the wrong graph must be rejected.
	bad := Options{Protocol: quickProto(graph.Line(4), 1), Params: quickParams(Alg1, graph.Line(4), 1)}
	bad.Params.ChunkBits = 1 << 30 // one giant chunk is fine; just exercise validation path
	if _, err := Run(bad); err != nil {
		t.Errorf("oversized chunk budget should still run: %v", err)
	}
}

// TestAllSchemesAllTopologiesNoiseless: the core integration matrix.
func TestAllSchemesAllTopologiesNoiseless(t *testing.T) {
	topologies := []struct {
		name string
		g    *graph.Graph
	}{
		{"line", graph.Line(4)},
		{"ring", graph.Ring(4)},
		{"star", graph.Star(5)},
		{"clique", graph.Clique(4)},
		{"tree", graph.BalancedTree(7, 2)},
	}
	for _, s := range []Scheme{Alg1, AlgA, AlgB, AlgC} {
		for _, topo := range topologies {
			t.Run(s.String()+"/"+topo.name, func(t *testing.T) {
				res, err := Run(Options{
					Protocol: quickProto(topo.g, 5),
					Params:   quickParams(s, topo.g, 5),
				})
				if err != nil {
					t.Fatal(err)
				}
				if !res.Success {
					t.Fatalf("failed: G*=%d/%d wrong=%d", res.GStar, res.NumChunks, res.WrongParties)
				}
				if res.GStar < res.NumChunks {
					t.Errorf("success but G*=%d < |Π|=%d", res.GStar, res.NumChunks)
				}
				if res.Metrics.HashCollisions != 0 {
					t.Errorf("noiseless run reported %d hash collisions", res.Metrics.HashCollisions)
				}
			})
		}
	}
}

// TestNoiselessIsOptimal: without noise, every iteration simulates one
// chunk — the scheme takes exactly |Π| iterations.
func TestNoiselessIsOptimal(t *testing.T) {
	g := graph.Line(5)
	res, err := Run(Options{Protocol: quickProto(g, 2), Params: quickParams(AlgA, g, 2)})
	if err != nil {
		t.Fatal(err)
	}
	if res.Iterations != res.NumChunks {
		t.Fatalf("noiseless run took %d iterations for %d chunks", res.Iterations, res.NumChunks)
	}
}

// TestDeterminism: identical options produce bit-identical outcomes.
func TestDeterminism(t *testing.T) {
	g := graph.Ring(5)
	mk := func() *Result {
		adv := adversary.NewRandomRate(0.002, rand.New(rand.NewSource(9)))
		res, err := Run(Options{
			Protocol:  quickProto(g, 9),
			Params:    quickParams(AlgA, g, 9),
			Adversary: adv,
		})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := mk(), mk()
	if a.Metrics.CC != b.Metrics.CC || a.Iterations != b.Iterations ||
		a.Success != b.Success || a.GStar != b.GStar ||
		a.Metrics.TotalCorruptions() != b.Metrics.TotalCorruptions() {
		t.Fatalf("runs diverged: CC %d/%d iters %d/%d", a.Metrics.CC, b.Metrics.CC, a.Iterations, b.Iterations)
	}
}

// TestLemma42NoiselessPotential: in noiseless runs, φ increases by
// exactly K per iteration (all links extend G by one chunk; every other
// term stays zero).
func TestLemma42NoiselessPotential(t *testing.T) {
	g := graph.Line(4)
	res, err := Run(Options{Protocol: quickProto(g, 3), Params: quickParams(Alg1, g, 3)})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Potential) < 2 {
		t.Fatal("no potential snapshots")
	}
	k := float64(quickParams(Alg1, g, 3).ChunkBits) / 5
	for i := 1; i < len(res.Potential); i++ {
		d := res.Potential[i].Phi - res.Potential[i-1].Phi
		if d < k-1e-9 {
			t.Fatalf("iteration %d: Δφ = %.2f < K = %.0f", i, d, k)
		}
	}
	// B* stays zero throughout a noiseless run.
	for _, snap := range res.Potential {
		if snap.BStar != 0 {
			t.Fatalf("noiseless iteration %d has B* = %d", snap.Iteration, snap.BStar)
		}
	}
}

// TestSingleDeletionRecovery: one deleted simulation bit costs O(1)
// iterations, at every line length (Claim 4.7's consequence). The O(1)
// bound needs the per-iteration collision independence of fresh seeds,
// so this pins the paper-faithful HashLegacy mode; the epoch-refresh
// companion below pins the relaxed bound of the default mode.
func TestSingleDeletionRecovery(t *testing.T) {
	for _, n := range []int{4, 7} {
		g := graph.Line(n)
		proto := quickProto(g, 4)
		params := quickParams(AlgA, g, 4)
		params.HashMode = HashLegacy
		clean, err := Run(Options{Protocol: proto, Params: params})
		if err != nil {
			t.Fatal(err)
		}
		noisy, err := Run(Options{
			Protocol: proto,
			Params:   params,
			AdversaryFactory: func(info RunInfo) adversary.Adversary {
				return &oneSimDeletion{oracle: info.PhaseOracle, target: channel.Link{From: 0, To: 1}}
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		if !noisy.Success {
			t.Fatalf("n=%d: failed after one deletion", n)
		}
		extra := noisy.Iterations - clean.Iterations
		if extra > 6 {
			t.Errorf("n=%d: one deletion cost %d extra iterations", n, extra)
		}
	}
}

// TestSingleDeletionRecoveryEpochBounded pins the epoch mode's relaxed
// recovery guarantee: under epoch refresh, a prefix-hash collision can
// persist at most R consecutive checks (the seed block is re-derived at
// the next epoch boundary), so one deletion costs O(R) extra iterations
// — never unbounded. This seed actually hits a persistent collision at
// n=7 (32 undetected-collision iterations — exactly one epoch at the
// pinned R — before the refresh clears it), making it a live regression
// test for the refresh mechanism: a never-refreshed run (EpochRefresh at
// least the budget) never recovers on the same input, and the
// persistence cap scales with R, which is why the test pins R = 32 rather
// than the perf-tuned default (this scenario's tight iteration budget
// ends before a default-sized epoch would).
func TestSingleDeletionRecoveryEpochBounded(t *testing.T) {
	const r = 32
	for _, n := range []int{4, 7} {
		g := graph.Line(n)
		proto := quickProto(g, 4)
		params := quickParams(AlgA, g, 4)
		params.EpochRefresh = r
		clean, err := Run(Options{Protocol: proto, Params: params})
		if err != nil {
			t.Fatal(err)
		}
		noisy, err := Run(Options{
			Protocol: proto,
			Params:   params,
			AdversaryFactory: func(info RunInfo) adversary.Adversary {
				return &oneSimDeletion{oracle: info.PhaseOracle, target: channel.Link{From: 0, To: 1}}
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		if !noisy.Success {
			t.Fatalf("n=%d: failed after one deletion under epoch refresh", n)
		}
		// A collision taints at most R checks; clearing the divergence it
		// built costs a further O(R) of rewinding. 4R covers both with
		// slack for the collision landing mid-epoch.
		extra := noisy.Iterations - clean.Iterations
		if limit := 4 * r; extra > limit {
			t.Errorf("n=%d: one deletion cost %d extra iterations, want <= %d (collision persistence must be epoch-bounded)", n, extra, limit)
		}
	}
	// The contrast: without refreshes the n=7 collision persists for the
	// rest of the run.
	g := graph.Line(7)
	params := quickParams(AlgA, g, 4)
	params.EpochRefresh = 1 << 30
	stuck, err := Run(Options{
		Protocol: quickProto(g, 4),
		Params:   params,
		AdversaryFactory: func(info RunInfo) adversary.Adversary {
			return &oneSimDeletion{oracle: info.PhaseOracle, target: channel.Link{From: 0, To: 1}}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if stuck.Success {
		t.Error("n=7: a never-refreshed run recovered from the persistent collision")
	}
}

type oneSimDeletion struct {
	oracle adversary.PhaseOracle
	target channel.Link
	done   bool
}

func (d *oneSimDeletion) Corrupt(round int, link channel.Link, sent bitstring.Symbol) bitstring.Symbol {
	if d.done || link != d.target || sent == bitstring.Silence {
		return sent
	}
	if ph, _ := d.oracle(round); ph != int(trace.PhaseSimulation) {
		return sent
	}
	d.done = true
	return bitstring.Silence
}

// TestSeedAttackThreshold: below the ECC's distance the exchange
// survives; wiping the whole codeword breaks exactly the attacked link.
func TestSeedAttackThreshold(t *testing.T) {
	g := graph.Line(4)
	target := channel.Link{From: 0, To: 1}

	light := adversary.NewSeedAttacker([]channel.Link{target}, 1<<20, 0.001, rand.New(rand.NewSource(1)))
	res, err := Run(Options{Protocol: quickProto(g, 6), Params: quickParams(AlgA, g, 6), Adversary: light})
	if err != nil {
		t.Fatal(err)
	}
	if res.BrokenSeedLinks != 0 {
		t.Errorf("light seed attack broke %d links", res.BrokenSeedLinks)
	}
	if !res.Success {
		t.Error("light seed attack caused failure")
	}

	heavy := adversary.NewSeedAttacker([]channel.Link{target}, 1<<20, 10.0, rand.New(rand.NewSource(1)))
	res, err = Run(Options{Protocol: quickProto(g, 6), Params: quickParams(AlgA, g, 6), Adversary: heavy})
	if err != nil {
		t.Fatal(err)
	}
	if res.BrokenSeedLinks == 0 {
		t.Error("unbounded seed attack broke no link")
	}
}

// TestAblationsStillWorkNoiseless: removing flag passing or rewind must
// not break noiseless runs (they only matter under noise).
func TestAblationsStillWorkNoiseless(t *testing.T) {
	g := graph.Line(4)
	for _, mod := range []func(*Params){
		func(p *Params) { p.DisableFlagPassing = true },
		func(p *Params) { p.DisableRewind = true },
		func(p *Params) { p.DisableFlagPassing = true; p.DisableRewind = true },
	} {
		params := quickParams(AlgA, g, 7)
		mod(&params)
		res, err := Run(Options{Protocol: quickProto(g, 7), Params: params})
		if err != nil {
			t.Fatal(err)
		}
		if !res.Success {
			t.Errorf("noiseless ablated run failed (flag=%v rewind=%v)",
				params.DisableFlagPassing, params.DisableRewind)
		}
	}
}

// TestBurstOnOneLinkRecovers: a banked salvo of deletions on one link is
// repaired by the meeting-points mechanism.
func TestBurstOnOneLinkRecovers(t *testing.T) {
	g := graph.Ring(4)
	proto := quickProto(g, 8)
	params := quickParams(Alg1, g, 8) // CRS: no exchange to shield the salvo
	adv := adversary.NewFixedDeletions(channel.Link{From: 1, To: 2}, 12)
	adv.Skip = 30 // past the first meeting-points hashes
	res, err := Run(Options{Protocol: proto, Params: params, Adversary: adv})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Success {
		t.Fatalf("salvo of 12 deletions not recovered: G*=%d/%d", res.GStar, res.NumChunks)
	}
	if adv.Corruptions() == 0 {
		t.Fatal("test vacuous: no deletion landed")
	}
}

// TestAdaptiveAdversaryAgainstB: Algorithm B holds up against the
// adaptive attacker at its nominal budget.
func TestAdaptiveAdversaryAgainstB(t *testing.T) {
	g := graph.Line(4)
	res, err := Run(Options{
		Protocol: quickProto(g, 10),
		Params:   quickParams(AlgB, g, 10),
		AdversaryFactory: func(info RunInfo) adversary.Adversary {
			return adversary.NewAdaptive(info.Links, info.PhaseOracle,
				int(trace.PhaseSimulation), 0.001, rand.New(rand.NewSource(10)))
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Success {
		t.Fatalf("AlgB failed vs adaptive: G*=%d/%d", res.GStar, res.NumChunks)
	}
}

// TestFaithfulModeMatchesPaperIterationCount: without early stop the run
// executes exactly IterFactor·|Π| iterations.
func TestFaithfulModeMatchesPaperIterationCount(t *testing.T) {
	g := graph.Line(3)
	params := quickParams(Alg1, g, 11)
	params.IterFactor = 3
	params.EarlyStop = false
	res, err := Run(Options{Protocol: quickProto(g, 11), Params: params})
	if err != nil {
		t.Fatal(err)
	}
	if res.Iterations != 3*res.NumChunks {
		t.Fatalf("faithful run: %d iterations, want %d", res.Iterations, 3*res.NumChunks)
	}
	if !res.Success {
		t.Error("faithful run failed")
	}
}

// TestCCPhaseAccounting: every transmitted bit is attributed to a phase,
// and the simulation phase dominates (constant-rate structure).
func TestCCPhaseAccounting(t *testing.T) {
	g := graph.Line(4)
	res, err := Run(Options{Protocol: quickProto(g, 12), Params: quickParams(AlgA, g, 12)})
	if err != nil {
		t.Fatal(err)
	}
	var sum int64
	for ph := trace.Phase(0); ph < trace.NumPhases; ph++ {
		sum += res.Metrics.CCPhase[ph]
	}
	if sum != res.Metrics.CC {
		t.Fatalf("phase CC sums to %d, total is %d", sum, res.Metrics.CC)
	}
	if res.Metrics.CCPhase[trace.PhaseExchange] == 0 {
		t.Error("exchange phase transmitted nothing under AlgA")
	}
	if res.Metrics.CCPhase[trace.PhaseSimulation] == 0 {
		t.Error("simulation phase transmitted nothing")
	}
}

// TestOutputsMatchReferenceExactly: on success, outputs are byte-for-byte
// the noiseless reference outputs for every workload type.
func TestOutputsMatchReferenceExactly(t *testing.T) {
	g := graph.Ring(4)
	ring, err := protocol.NewTokenRing(4, 5, protocol.DefaultInputs(4, 4, 13))
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(Options{Protocol: ring, Params: quickParams(AlgA, g, 13)})
	if err != nil {
		t.Fatal(err)
	}
	ref := protocol.RunReference(ring)
	if !res.Success {
		t.Fatal("run failed")
	}
	for i := range ref.Outputs {
		if string(res.Outputs[i]) != string(ref.Outputs[i]) {
			t.Fatalf("party %d output differs from reference", i)
		}
	}
}

// TestHeavyNoiseFailsGracefully: way past the tolerance the run fails,
// but must terminate within the iteration budget and report honestly.
func TestHeavyNoiseFailsGracefully(t *testing.T) {
	g := graph.Line(3)
	params := quickParams(AlgA, g, 15)
	params.IterFactor = 5
	adv := adversary.NewRandomRate(0.2, rand.New(rand.NewSource(15)))
	res, err := Run(Options{Protocol: quickProto(g, 15), Params: params, Adversary: adv})
	if err != nil {
		t.Fatal(err)
	}
	if res.Iterations > 5*res.NumChunks {
		t.Fatalf("exceeded iteration budget: %d > %d", res.Iterations, 5*res.NumChunks)
	}
	if res.Success && res.GStar < res.NumChunks {
		t.Error("claimed success with G* < |Π|")
	}
}

// TestTwoPartySpecialization: the multiparty scheme degenerates cleanly
// to the classic two-party interactive-coding setting (a single link).
func TestTwoPartySpecialization(t *testing.T) {
	g := graph.Line(2)
	proto := protocol.NewRandom(g, 60, 0.8, 19, nil)
	for _, s := range []Scheme{Alg1, AlgA} {
		params := quickParams(s, g, 19)
		res, err := Run(Options{Protocol: proto, Params: params})
		if err != nil {
			t.Fatal(err)
		}
		if !res.Success {
			t.Fatalf("%v two-party noiseless run failed", s)
		}
		// And under a single deletion.
		adv := adversary.NewFixedDeletions(channel.Link{From: 0, To: 1}, 1)
		adv.Skip = 40
		res, err = Run(Options{Protocol: proto, Params: params, Adversary: adv})
		if err != nil {
			t.Fatal(err)
		}
		if !res.Success {
			t.Fatalf("%v two-party run with one deletion failed", s)
		}
	}
}

// TestFixingAdversary: the stronger oblivious adversary of Remark 1 that
// pre-fixes channel outputs (rather than additive offsets) is also
// survived; the analysis of Sections 4 and 5 covers it (Remark 1).
func TestFixingAdversary(t *testing.T) {
	g := graph.Line(4)
	proto := quickProto(g, 23)
	params := quickParams(Alg1, g, 23)
	fix := adversary.NewFixingPattern()
	// Fix a scattering of slots across the run's early rounds: some will
	// hit real transmissions (substitutions/deletions), some silent slots
	// (insertions), some will coincide with what was sent (free).
	for r := 50; r < 400; r += 17 {
		fix.Fix(r, channel.Link{From: 1, To: 2}, bitstring.Symbol(uint8(r)%3))
	}
	res, err := Run(Options{Protocol: proto, Params: params, Adversary: fix})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Success {
		t.Fatalf("fixing adversary broke the run: G*=%d/%d, %d corruptions",
			res.GStar, res.NumChunks, res.Metrics.TotalCorruptions())
	}
}
