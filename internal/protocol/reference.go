package protocol

import (
	"fmt"

	"mpic/internal/bitstring"
	"mpic/internal/channel"
	"mpic/internal/graph"
)

// MapView is a concrete View backed by per-link symbol slices, one pair
// per neighbor port. It is used for noiseless reference executions, the
// baselines, and in tests.
type MapView struct {
	self  graph.Node
	input []byte
	nbrs  []graph.Node
	// obs[2·port] holds what self sent to nbrs[port], obs[2·port+1] what
	// it received from nbrs[port].
	obs [][]bitstring.Symbol
}

// NewMapView returns an empty view for party self of g with the given
// input.
func NewMapView(g *graph.Graph, self graph.Node, input []byte) *MapView {
	nbrs := g.Neighbors(self)
	return &MapView{self: self, input: input, nbrs: nbrs, obs: make([][]bitstring.Symbol, 2*len(nbrs))}
}

// reserve gives each of v's link slices room for every transmission
// sched makes on that link, carved from syms, and returns the rest of
// syms.
func (v *MapView) reserve(sched *Schedule, syms []bitstring.Symbol) []bitstring.Symbol {
	for port, w := range v.nbrs {
		for d, l := range [2]channel.Link{{From: v.self, To: w}, {From: w, To: v.self}} {
			n := sched.CountOn(l)
			v.obs[2*port+d], syms = syms[:0:n], syms[n:]
		}
	}
	return syms
}

// Self implements View.
func (v *MapView) Self() graph.Node { return v.self }

// Input implements View.
func (v *MapView) Input() []byte { return v.input }

// index returns l's position in obs, or -1 if l is not incident to Self.
func (v *MapView) index(l channel.Link) int {
	switch {
	case l.From == v.self:
		if p := graph.IndexOf(v.nbrs, l.To); p >= 0 {
			return 2 * p
		}
	case l.To == v.self:
		if p := graph.IndexOf(v.nbrs, l.From); p >= 0 {
			return 2*p + 1
		}
	}
	return -1
}

// Observed implements View.
func (v *MapView) Observed(l channel.Link, seq int) bitstring.Symbol {
	i := v.index(l)
	if i < 0 || seq < 0 || seq >= len(v.obs[i]) {
		return bitstring.Silence
	}
	return v.obs[i][seq]
}

// Record appends an observation for directed link l, which must be
// incident to Self.
func (v *MapView) Record(l channel.Link, s bitstring.Symbol) {
	i := v.index(l)
	if i < 0 {
		panic(fmt.Sprintf("protocol: party %d recorded non-incident link %v", v.self, l))
	}
	v.obs[i] = append(v.obs[i], s)
}

// Reference is the result of a noiseless execution of Π.
type Reference struct {
	// Outputs holds each party's output.
	Outputs [][]byte
}

// RunReference executes Π over a noiseless network and returns every
// party's output — the ground truth the coded simulations are judged
// against. The schedule must use only links of Π's graph.
func RunReference(p Protocol) *Reference {
	g := p.Graph()
	sched := p.Schedule()
	// One symbol slab holds each transmission twice, at its sender's and
	// at its receiver's view.
	syms := make([]bitstring.Symbol, 2*sched.TotalBits())
	views := make([]*MapView, g.N())
	for i := range views {
		views[i] = NewMapView(g, graph.Node(i), p.Input(graph.Node(i)))
		syms = views[i].reserve(sched, syms)
	}
	seq := make([]int, 2*g.M()) // by graph.LinkIndex
	var bits []byte
	for r := 0; r < sched.Rounds(); r++ {
		txs := sched.At(r)
		// Synchronous semantics: compute all of this round's bits from
		// strictly earlier observations, then commit.
		bits = bits[:0]
		for _, tx := range txs {
			li := g.LinkIndex(tx.From, tx.To)
			if li < 0 {
				panic(fmt.Sprintf("protocol: reference run of a schedule using non-edge %v", tx.Link()))
			}
			bits = append(bits, p.SendBit(views[tx.From], r, tx, seq[li])&1)
			seq[li]++
		}
		for i, tx := range txs {
			l := tx.Link()
			sym := bitstring.SymbolFromBit(bits[i])
			views[tx.From].Record(l, sym)
			views[tx.To].Record(l, sym)
		}
	}
	out := make([][]byte, g.N())
	for i := 0; i < g.N(); i++ {
		out[i] = p.Output(views[i])
	}
	return &Reference{Outputs: out}
}
