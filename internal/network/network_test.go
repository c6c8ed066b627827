package network

import (
	"fmt"
	"math/rand"
	"testing"

	"mpic/internal/adversary"
	"mpic/internal/bitstring"
	"mpic/internal/channel"
	"mpic/internal/graph"
	"mpic/internal/trace"
)

// echoParty emits a fixed per-round pattern and records everything it
// observes, for engine-behavior tests.
type echoParty struct {
	id       graph.Node
	nbrs     []graph.Node
	sendFn   func(round int, to graph.Node) bitstring.Symbol
	received []recorded
	ends     []int
}

type recorded struct {
	round int
	from  graph.Node
	port  int
	sym   bitstring.Symbol
}

func (p *echoParty) ID() graph.Node { return p.id }

func (p *echoParty) Send(round int, out []bitstring.Symbol) {
	for port, to := range p.nbrs {
		out[port] = bitstring.Silence
		if p.sendFn != nil {
			out[port] = p.sendFn(round, to)
		}
	}
}

func (p *echoParty) Deliver(round int, from graph.Node, port int, sym bitstring.Symbol) {
	p.received = append(p.received, recorded{round: round, from: from, port: port, sym: sym})
}

func (p *echoParty) EndRound(round int) { p.ends = append(p.ends, round) }

// mkParties returns one echo party per node of g; fns[i], when set, is
// party i's send pattern.
func mkParties(g *graph.Graph, fns map[int]func(int, graph.Node) bitstring.Symbol) ([]Party, []*echoParty) {
	n := g.N()
	eps := make([]*echoParty, n)
	ps := make([]Party, n)
	for i := 0; i < n; i++ {
		eps[i] = &echoParty{id: graph.Node(i), nbrs: g.Neighbors(graph.Node(i)), sendFn: fns[i]}
		ps[i] = eps[i]
	}
	return ps, eps
}

func TestEngineDeliversSymbols(t *testing.T) {
	g := graph.Line(3)
	ps, eps := mkParties(g, map[int]func(int, graph.Node) bitstring.Symbol{
		0: func(r int, to graph.Node) bitstring.Symbol { return bitstring.Sym1 },
	})
	eng, err := NewEngine(g, ps, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	eng.RunRounds(0, 2)
	// Party 1 must have received Sym1 from 0 and Silence from 2, both
	// rounds.
	var from0, from2 int
	for _, r := range eps[1].received {
		switch {
		case r.from == 0 && r.sym == bitstring.Sym1:
			from0++
		case r.from == 2 && r.sym == bitstring.Silence:
			from2++
		}
	}
	if from0 != 2 || from2 != 2 {
		t.Fatalf("party 1 received from0=%d from2=%d, want 2/2", from0, from2)
	}
	// CC: party 0 transmits on 1 link × 2 rounds.
	if eng.Metrics().CC != 2 {
		t.Fatalf("CC = %d, want 2", eng.Metrics().CC)
	}
}

func TestEngineEndRoundHook(t *testing.T) {
	g := graph.Line(2)
	ps, eps := mkParties(g, nil)
	eng, _ := NewEngine(g, ps, nil, nil)
	eng.RunRounds(0, 3)
	want := []int{0, 1, 2}
	for _, p := range eps {
		if len(p.ends) != 3 {
			t.Fatalf("EndRound called %d times, want 3", len(p.ends))
		}
		for i, r := range p.ends {
			if r != want[i] {
				t.Fatalf("EndRound rounds = %v", p.ends)
			}
		}
	}
}

func TestEngineValidation(t *testing.T) {
	g := graph.Line(3)
	ps, _ := mkParties(graph.Line(2), nil)
	if _, err := NewEngine(g, ps, nil, nil); err == nil {
		t.Error("party/node count mismatch accepted")
	}
	bad := []Party{&echoParty{id: 1}, &echoParty{id: 0}, &echoParty{id: 2}}
	if _, err := NewEngine(g, bad, nil, nil); err == nil {
		t.Error("misindexed parties accepted")
	}
}

func TestEngineAdversaryConsultedOnSilentSlots(t *testing.T) {
	g := graph.Line(2)
	ps, eps := mkParties(g, nil) // nobody transmits
	// Insert a bit on every slot of link 0→1.
	pat := adversary.NewPattern()
	for r := 0; r < 3; r++ {
		pat.Set(r, channel.Link{From: 0, To: 1}, 2) // Silence+2 = Sym1
	}
	eng, _ := NewEngine(g, ps, pat, nil)
	eng.RunRounds(0, 3)
	got := 0
	for _, rec := range eps[1].received {
		if rec.from == 0 && rec.sym == bitstring.Sym1 {
			got++
		}
	}
	if got != 3 {
		t.Fatalf("insertions delivered %d, want 3", got)
	}
	m := eng.Metrics()
	if m.Corruptions[channel.KindInsertion] != 3 {
		t.Fatalf("insertion count = %d, want 3", m.Corruptions[channel.KindInsertion])
	}
	if m.CC != 0 {
		t.Fatalf("CC = %d, want 0 (insertions are not party transmissions)", m.CC)
	}
}

func TestEngineCorruptionClassification(t *testing.T) {
	g := graph.Line(2)
	ps, _ := mkParties(g, map[int]func(int, graph.Node) bitstring.Symbol{
		0: func(r int, to graph.Node) bitstring.Symbol { return bitstring.Sym0 },
	})
	pat := adversary.NewPattern()
	pat.Set(0, channel.Link{From: 0, To: 1}, 1) // 0 → 1: substitution
	pat.Set(1, channel.Link{From: 0, To: 1}, 2) // 0 → *: deletion
	eng, _ := NewEngine(g, ps, pat, nil)
	eng.RunRounds(0, 2)
	m := eng.Metrics()
	if m.Corruptions[channel.KindSubstitution] != 1 {
		t.Errorf("substitutions = %d, want 1", m.Corruptions[channel.KindSubstitution])
	}
	if m.Corruptions[channel.KindDeletion] != 1 {
		t.Errorf("deletions = %d, want 1", m.Corruptions[channel.KindDeletion])
	}
}

func TestEnginePhaseAttribution(t *testing.T) {
	g := graph.Line(2)
	ps, _ := mkParties(g, map[int]func(int, graph.Node) bitstring.Symbol{
		0: func(r int, to graph.Node) bitstring.Symbol { return bitstring.Sym1 },
		1: func(r int, to graph.Node) bitstring.Symbol { return bitstring.Sym1 },
	})
	eng, _ := NewEngine(g, ps, nil, nil)
	eng.SetPhaseFn(func(round int) trace.Phase {
		if round < 2 {
			return trace.PhaseSimulation
		}
		return trace.PhaseRewind
	})
	eng.RunRounds(0, 3)
	m := eng.Metrics()
	if m.CCPhase[trace.PhaseSimulation] != 4 || m.CCPhase[trace.PhaseRewind] != 2 {
		t.Fatalf("phase CC = sim %d / rewind %d, want 4/2",
			m.CCPhase[trace.PhaseSimulation], m.CCPhase[trace.PhaseRewind])
	}
}

func TestLinksDeterministicOrder(t *testing.T) {
	g := graph.Ring(4)
	ps, _ := mkParties(g, nil)
	eng, _ := NewEngine(g, ps, nil, nil)
	links := eng.Links()
	if len(links) != 8 {
		t.Fatalf("links = %d, want 8", len(links))
	}
	for i := 1; i < len(links); i++ {
		p, c := links[i-1], links[i]
		if p.From > c.From || (p.From == c.From && p.To >= c.To) {
			t.Fatal("links not sorted")
		}
	}
}

// portParty checks that every Send gets one entry per neighbor and every
// Deliver names the neighbor's position in the party's sorted neighbor
// list as its port. It sends its own ID on every port, tagged with the
// port, so a delivery shows which sender's entry carried it.
type portParty struct {
	id    graph.Node
	g     *graph.Graph
	nbrs  []graph.Node
	calls int
	bad   []string
}

func (p *portParty) ID() graph.Node { return p.id }

// portSym is the symbol party from sends on port: a neighboring port's
// symbol differs, so an entry handed to the wrong link shows.
func portSym(from graph.Node, port int) bitstring.Symbol {
	return bitstring.Symbol((int(from) + 2*port) % 3)
}

func (p *portParty) Send(round int, out []bitstring.Symbol) {
	p.calls++
	if len(out) != len(p.nbrs) {
		p.bad = append(p.bad, fmt.Sprintf("party %d Send(round %d) got %d entries for %d neighbors", p.id, round, len(out), len(p.nbrs)))
	}
	for port := range out {
		out[port] = portSym(p.id, port)
	}
}

func (p *portParty) Deliver(round int, from graph.Node, port int, sym bitstring.Symbol) {
	p.calls++
	if port < 0 || port >= len(p.nbrs) || p.nbrs[port] != from {
		p.bad = append(p.bad, fmt.Sprintf("party %d Deliver(round %d, %d) got port %d", p.id, round, from, port))
		return
	}
	if want := portSym(from, graph.IndexOf(p.g.Neighbors(from), p.id)); sym != want {
		p.bad = append(p.bad, fmt.Sprintf("party %d Deliver(round %d, %d) got %v, want %v", p.id, round, from, sym, want))
	}
}

func TestEnginePorts(t *testing.T) {
	g := graph.RandomConnected(9, 6, rand.New(rand.NewSource(3)))
	for _, timed := range []bool{false, true} {
		ps := make([]Party, g.N())
		pps := make([]*portParty, g.N())
		for i := range ps {
			pps[i] = &portParty{id: graph.Node(i), g: g, nbrs: g.Neighbors(graph.Node(i))}
			ps[i] = pps[i]
		}
		eng, err := NewEngine(g, ps, nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		if timed {
			eng.forceTimed = true
			eng.SetTiming(Unit{}, nil)
		}
		eng.RunRounds(0, 3)
		for _, p := range pps {
			// One Send per round, one Deliver per incoming link.
			if want := 3 * (1 + g.Degree(p.id)); p.calls != want {
				t.Errorf("timed=%v: party %d saw %d calls, want %d", timed, p.id, p.calls, want)
			}
			for _, msg := range p.bad {
				t.Errorf("timed=%v: %s", timed, msg)
			}
		}
	}
}
