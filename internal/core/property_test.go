package core

import (
	"math/rand"
	"testing"
	"testing/quick"

	"mpic/internal/adversary"
	"mpic/internal/graph"
	"mpic/internal/protocol"
)

// TestEndToEndProperty is the library's headline property: over random
// connected topologies, random sparse workloads, and random light
// oblivious noise, the coded simulation reproduces the noiseless
// reference outputs.
func TestEndToEndProperty(t *testing.T) {
	f := func(seed int64, nRaw, extraRaw uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		n := int(nRaw)%5 + 3       // 3..7 parties
		extra := int(extraRaw) % n // extra edges beyond the tree
		g := graph.RandomConnected(n, extra, rng)
		proto := protocol.NewRandom(g, 10*n, 0.4, seed, nil)
		params := ParamsFor(AlgA, g)
		params.CRSKey = seed
		params.IterFactor = 40
		adv := adversary.NewRandomRate(0.002/float64(g.M()), rand.New(rand.NewSource(seed^0x5f5f)))
		res, err := Run(Options{Protocol: proto, Params: params, Adversary: adv})
		if err != nil {
			t.Logf("seed %d: %v", seed, err)
			return false
		}
		if !res.Success {
			t.Logf("seed %d n=%d m=%d: failed with %d corruptions, G*=%d/%d",
				seed, n, g.M(), res.Metrics.TotalCorruptions(), res.GStar, res.NumChunks)
		}
		return res.Success
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

// TestEndToEndPinnedEpochStall pins the one input TestEndToEndProperty
// has been seen to fail on (seed -6652609147288969921, nRaw 0xe,
// extraRaw 0x6e: n=7, m=11). It is a real failure of the library
// default, not noise: at τ=8 the default refresh interval R=256 exceeds
// 2^(τ−3)=32, so a colliding seed block persists long enough to stall
// the run at G*=0 for its whole 40·|Π| budget, with collisions at 3.7×
// the fresh-seed rate 2^−8. The paper's fresh seeds (HashLegacy) and
// R=16 both finish. The oracle counts collisions without changing the
// run, so the default case is checked with it off as well.
func TestEndToEndPinnedEpochStall(t *testing.T) {
	const seed = -6652609147288969921
	cases := []struct {
		name                    string
		mode                    HashMode
		refresh                 int
		success                 bool
		iters, gstar            int
		corruptions             int64
		collisions, comparisons int64
	}{
		{"default", HashEpoch, 0, false, 520, 0, 48, 249, 17160},
		{"legacy", HashLegacy, 0, true, 17, 13, 3, 1, 561},
		{"refresh-16", HashEpoch, 16, true, 60, 13, 6, 11, 1980},
	}
	for _, tc := range cases {
		for _, oracle := range []bool{true, false} {
			if !oracle && tc.name != "default" {
				continue
			}
			rng := rand.New(rand.NewSource(seed))
			n := 0xe%5 + 3
			g := graph.RandomConnected(n, 0x6e%n, rng)
			proto := protocol.NewRandom(g, 10*n, 0.4, seed, nil)
			params := ParamsFor(AlgA, g)
			params.CRSKey = seed
			params.IterFactor = 40
			params.HashMode = tc.mode
			params.EpochRefresh = tc.refresh
			params.Oracle = oracle
			adv := adversary.NewRandomRate(0.002/float64(g.M()), rand.New(rand.NewSource(seed^0x5f5f)))
			res, err := Run(Options{Protocol: proto, Params: params, Adversary: adv})
			if err != nil {
				t.Fatalf("%s: %v", tc.name, err)
			}
			if n != 7 || g.M() != 11 || params.HashBits != 8 || res.NumChunks != 13 {
				t.Fatalf("%s: input drifted: n=%d m=%d τ=%d |Π| chunks=%d", tc.name, n, g.M(), params.HashBits, res.NumChunks)
			}
			if res.Success != tc.success || res.Iterations != tc.iters || res.GStar != tc.gstar ||
				res.Metrics.TotalCorruptions() != tc.corruptions {
				t.Errorf("%s (oracle %v): success=%v after %d iterations, G*=%d, %d corruptions; want %v, %d, %d, %d",
					tc.name, oracle, res.Success, res.Iterations, res.GStar, res.Metrics.TotalCorruptions(),
					tc.success, tc.iters, tc.gstar, tc.corruptions)
			}
			if oracle && (res.Metrics.HashCollisions != tc.collisions || res.Metrics.HashComparisons != tc.comparisons) {
				t.Errorf("%s: %d/%d hash collisions, want %d/%d", tc.name,
					res.Metrics.HashCollisions, res.Metrics.HashComparisons, tc.collisions, tc.comparisons)
			}
		}
	}
}

// TestInvariantGStarNeverExceedsTranscripts: across noisy runs the
// oracle's G* is consistent (it never exceeds any endpoint's transcript
// length) and success always implies G* >= |Π|.
func TestInvariantSuccessImpliesAgreement(t *testing.T) {
	f := func(seed int64, noiseRaw uint8) bool {
		g := graph.Ring(4)
		noise := float64(noiseRaw%50) / 10000.0
		proto := protocol.NewRandom(g, 40, 0.5, seed, nil)
		params := ParamsFor(Alg1, g)
		params.CRSKey = seed
		params.IterFactor = 20
		adv := adversary.NewRandomRate(noise, rand.New(rand.NewSource(seed)))
		res, err := Run(Options{Protocol: proto, Params: params, Adversary: adv})
		if err != nil {
			return false
		}
		if res.Success && res.GStar < res.NumChunks {
			t.Logf("seed %d: success with G*=%d < %d", seed, res.GStar, res.NumChunks)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

// TestChunkingPropertyRandomSchedules: chunk covers and locates every
// transmission for arbitrary workload shapes.
func TestChunkingPropertyRandomSchedules(t *testing.T) {
	f := func(seed int64, nRaw, densityRaw uint8) bool {
		n := int(nRaw)%5 + 3
		density := float64(densityRaw%90+10) / 100.0
		g := graph.Ring(n)
		proto := protocol.NewRandom(g, 30, density, seed, nil)
		chunkBits := 5 * g.M()
		ch := protocol.NewChunking(proto, chunkBits)
		total := 0
		for _, spec := range ch.Specs {
			total += spec.Bits
		}
		if total != proto.Schedule().TotalBits() {
			return false
		}
		// Every transmission must be locatable and rounds must nest.
		seq := map[int]int{} // crude per-link counters keyed by hash
		_ = seq
		count := 0
		for r := 0; r < proto.Schedule().Rounds(); r++ {
			count += len(proto.Schedule().At(r))
		}
		located := 0
		for i := 1; i <= ch.NumChunks(); i++ {
			for id := 0; id < g.M(); id++ {
				_, slots := ch.Slots(i, id)
				located += len(slots)
			}
		}
		return located == count
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}
