package network

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"hash"
	"math"
	"testing"

	"mpic/internal/adversary"
	"mpic/internal/channel"
	"mpic/internal/graph"
)

// desGoldenRounds is the length of every golden-digest run: long enough
// that outage windows, crash windows (the middle half of the run) and
// late stragglers all occur on a 5-clique.
const desGoldenRounds = 200

// desGoldenModels are the delay models of the golden matrix, each built
// from the run's seed. Every one pushes part of its range past the
// deadline, so the matrix exercises late symbols under every model.
var desGoldenModels = []struct {
	name string
	mk   func(seed int64) DelayModel
}{
	{"jitter", func(seed int64) DelayModel {
		return FixedJitter{Base: 0.4, Jitter: 0.8, Seed: seed}
	}},
	{"lognormal", func(seed int64) DelayModel {
		return Lognormal{Median: 0.5, Sigma: 0.4, Seed: seed}
	}},
	{"bands", func(seed int64) DelayModel {
		return Bands{Bands: []Band{
			{Fraction: 0.75, Base: 0.25, Jitter: 0.15},
			{Fraction: 0.25, Base: 0.55, Jitter: 0.5},
		}, Seed: seed}
	}},
}

// desGoldenFaults are the fault settings of the golden matrix.
var desGoldenFaults = []struct {
	name string
	mk   func(seed int64) *FaultSchedule
}{
	{"none", func(int64) *FaultSchedule { return nil }},
	{"spikes+straggler", func(seed int64) *FaultSchedule {
		return &FaultSchedule{Seed: seed, SpikeRate: 0.05, Stragglers: 1}
	}},
	{"outages", func(seed int64) *FaultSchedule {
		return &FaultSchedule{Seed: seed, OutageRate: 0.01}
	}},
	{"crashes", func(seed int64) *FaultSchedule {
		return &FaultSchedule{Seed: seed, Crashes: 1, CrashLen: 20}
	}},
}

// desGolden holds the digest of each (model, faults) cell of the matrix,
// folded over seeds 1..3. The values were recorded with the heap-only
// DES step that preceded the on-time fast path; any change to what a
// timed run delivers or records changes them.
var desGolden = map[string]string{
	"jitter/none":                "66afd7edd01db773873c85a6da625228e64532f66c3b2c3a1f7190dd8e94b02a",
	"jitter/spikes+straggler":    "520c69715c13f8796d52e1523986c8649bd938b3b85df7f3230fa87fff7dffdf",
	"jitter/outages":             "aa865f7a8260a91143eec7bc1f5c8d7b84fef333b7263751a0520cc9f4ac790d",
	"jitter/crashes":             "944b44d35f5815a8ccbba72db925072c2057e16af2f80058ec9972857066f214",
	"lognormal/none":             "34950a4a54a195f36d12f7941f806a2c5c1cb54329bb1aa48f378272bd2ae3e7",
	"lognormal/spikes+straggler": "bb99f8d474b292979f96a7bef451136a4a1daf2e55a904add226f8e6c0fd27bd",
	"lognormal/outages":          "1f947dc7fc48b2c8653a0717eafcafd1df50c4464b3eca9a05b5e11e512eba34",
	"lognormal/crashes":          "47b7b3ce4d7481c4ada0c5b9c7c32bf41bf12e98a136f9ff110941b0f6db783e",
	"bands/none":                 "7f97f59c7374aba5297c67a23e0f90ee2d04dddc4ecd28954c3367329b2d631c",
	"bands/spikes+straggler":     "91d5a5fe6cc1b17508024b29ef9e367590487027e48a4a23b40e698514d783a1",
	"bands/outages":              "9b1d56be4f79c97019a9732f8a2a6b4e8e1630bf0fc4dea3e1177d90c152dc4b",
	"bands/crashes":              "13b14d424f419c25eb324fb7374cc683c7d2db86a585e1c5d72f4e841c7d9b52",
}

// digestRun folds one timed run into h: every delivery every party saw,
// in order, then the run's Metrics including the full NetStats (makespan,
// late and erasure counters, each link's delay histogram).
func digestRun(h hash.Hash, eng *Engine, eps []*echoParty) {
	var buf [8]byte
	u := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	f := func(v float64) { u(math.Float64bits(v)) }
	for _, ep := range eps {
		u(uint64(len(ep.received)))
		for _, r := range ep.received {
			u(uint64(r.round))
			u(uint64(r.from))
			u(uint64(r.sym))
		}
	}
	m := eng.Metrics()
	u(uint64(m.CC))
	for _, c := range m.CCPhase {
		u(uint64(c))
	}
	u(uint64(m.Rounds))
	for _, c := range m.Corruptions {
		u(uint64(c))
	}
	n := m.Net
	f(n.Makespan)
	u(uint64(n.LateSymbols))
	u(uint64(n.LateDelivered))
	u(uint64(n.LateDropped))
	u(uint64(n.Erasures))
	u(uint64(len(n.Links)))
	for _, l := range n.Links {
		u(uint64(l.From))
		u(uint64(l.To))
		u(uint64(l.Hist.Count))
		f(l.Hist.Sum)
		f(l.Hist.Max)
		for _, b := range l.Hist.Buckets {
			u(uint64(b))
		}
	}
}

// TestDESGoldenDigest pins the virtual-time engine bit for bit: every
// delay model against every fault setting, at three seeds, on echo
// parties over Clique(5) with a sparse substitution adversary. The
// digest covers every delivery and the full Metrics, so an optimisation
// of the DES step must leave it unchanged.
func TestDESGoldenDigest(t *testing.T) {
	g := graph.Clique(5)
	pat := adversary.NewPattern()
	pat.Set(3, channel.Link{From: 0, To: 1}, 1)
	pat.Set(41, channel.Link{From: 2, To: 4}, 2)
	pat.Set(117, channel.Link{From: 4, To: 3}, 1)

	var late, delivered, dropped, erased int64
	for _, dm := range desGoldenModels {
		for _, fs := range desGoldenFaults {
			name := dm.name + "/" + fs.name
			h := sha256.New()
			for seed := int64(1); seed <= 3; seed++ {
				var wf *WiredFaults
				if spec := fs.mk(seed*7 + 1); spec != nil {
					var err error
					if wf, err = spec.Wire(5, desGoldenRounds); err != nil {
						t.Fatalf("%s seed %d: %v", name, seed, err)
					}
				}
				ps, eps := mkParties(5, cliqueFns(5))
				eng, err := NewEngine(g, ps, pat, nil)
				if err != nil {
					t.Fatal(err)
				}
				eng.SetTiming(dm.mk(seed), wf)
				eng.RunRounds(0, desGoldenRounds)
				digestRun(h, eng, eps)
				n := eng.Metrics().Net
				late += n.LateSymbols
				delivered += n.LateDelivered
				dropped += n.LateDropped
				erased += n.Erasures
			}
			got := hex.EncodeToString(h.Sum(nil))
			if want := desGolden[name]; got != want {
				t.Errorf("%s: digest %s, want %s", name, got, want)
			}
		}
	}
	if late == 0 || delivered == 0 || dropped == 0 || erased == 0 {
		t.Fatalf("matrix misses a DES path: late=%d delivered=%d dropped=%d erased=%d",
			late, delivered, dropped, erased)
	}
}
