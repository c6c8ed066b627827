package network

import (
	"testing"

	"mpic/internal/bitstring"
	"mpic/internal/graph"
)

// sinkParty sends a fixed per-round pattern and folds its deliveries into
// a counter, so a benchmark measures the engine and not the party.
type sinkParty struct {
	id  graph.Node
	sum uint64
}

func (p *sinkParty) ID() graph.Node { return p.id }

func (p *sinkParty) Send(round int, to graph.Node, _ int) bitstring.Symbol {
	return bitstring.Symbol(uint8(round+int(p.id)+int(to)) % 3)
}

func (p *sinkParty) Deliver(round int, from graph.Node, _ int, sym bitstring.Symbol) {
	p.sum += uint64(sym)
}

// stepTimedCases are the DES configurations of BenchmarkStepTimed: the
// unit model (every symbol on time, forced onto the DES path) and the
// scenario-des benchmark workload's lognormal delays with rare spikes.
var stepTimedCases = []struct {
	name   string
	model  DelayModel
	faults *FaultSchedule
}{
	{"unit", Unit{}, nil},
	{"lognormal-spikes", Lognormal{Median: 0.5, Sigma: 0.2, Seed: 1}, &FaultSchedule{Seed: 1, SpikeRate: 0.0005}},
}

// newStepTimedEngine builds a Clique(12) engine of sink parties on the
// DES path under the given model and fault schedule, warmed up for
// warm rounds so the late-symbol heap has reached its working size.
func newStepTimedEngine(tb testing.TB, model DelayModel, spec *FaultSchedule, warm int) *Engine {
	const n = 12
	ps := make([]Party, n)
	for i := range ps {
		ps[i] = &sinkParty{id: graph.Node(i)}
	}
	eng, err := NewEngine(graph.Clique(n), ps, nil, nil)
	if err != nil {
		tb.Fatal(err)
	}
	var wf *WiredFaults
	if spec != nil {
		if wf, err = spec.Wire(n, 1<<30); err != nil {
			tb.Fatal(err)
		}
	}
	eng.forceTimed = true
	eng.SetTiming(model, wf)
	eng.RunRounds(0, warm)
	return eng
}

// BenchmarkStepTimed measures one round of the virtual-time engine on
// Clique(12) (132 directed links). One op is one round, so ns/op and
// allocs/op are per round; allocs/op must stay 0. `make bench-net` runs
// it.
func BenchmarkStepTimed(b *testing.B) {
	for _, c := range stepTimedCases {
		b.Run(c.name, func(b *testing.B) {
			eng := newStepTimedEngine(b, c.model, c.faults, 1000)
			b.ReportAllocs()
			b.ResetTimer()
			for r := 1000; r < 1000+b.N; r++ {
				eng.step(r)
			}
		})
	}
}

// TestStepTimedZeroAlloc: a warmed-up DES round allocates nothing, on
// time or with late symbols in flight.
func TestStepTimedZeroAlloc(t *testing.T) {
	for _, c := range stepTimedCases {
		eng := newStepTimedEngine(t, c.model, c.faults, 1000)
		r := 1000
		allocs := testing.AllocsPerRun(200, func() {
			eng.step(r)
			r++
		})
		if allocs != 0 {
			t.Errorf("%s: %.1f allocs per round, want 0", c.name, allocs)
		}
	}
}
