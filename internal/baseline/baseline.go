// Package baseline implements the non-interactive-coding comparison
// points of the Table 1 regeneration: running Π uncoded over the noisy
// network, and a naive forward-error-correction scheme (per-transmission
// repetition) that handles random substitutions but has no feedback or
// rollback — behavioural stand-ins for what the paper's scheme improves
// on (tree-code approaches have no efficient construction and are
// therefore absent).
package baseline

import (
	"bytes"
	"errors"

	"mpic/internal/adversary"
	"mpic/internal/bitstring"
	"mpic/internal/channel"
	"mpic/internal/graph"
	"mpic/internal/network"
	"mpic/internal/protocol"
	"mpic/internal/trace"
)

// Result reports a baseline run with the same top-level fields as a coded
// run, so experiment tables can mix them.
type Result struct {
	Success      bool
	Metrics      *trace.Metrics
	CCProtocol   int
	Blowup       float64
	WrongParties int
}

// uncodedParty executes Π's schedule directly: whatever arrives is taken
// at face value, Silence reads as 0.
type uncodedParty struct {
	id    graph.Node
	nbrs  []graph.Node
	proto protocol.Protocol
	rep   int // repetition factor; 1 = uncoded
	view  *protocol.MapView
	// All by port (the neighbor's position in the party's neighbor list):
	// seq counts the transmissions committed on the outgoing link, and
	// votes and count tally the incoming repetition block.
	seq, votes, count []int
}

func newUncodedParty(id graph.Node, proto protocol.Protocol, rep int) *uncodedParty {
	g := proto.Graph()
	deg := g.Degree(id)
	return &uncodedParty{
		id:    id,
		nbrs:  g.Neighbors(id),
		proto: proto,
		rep:   rep,
		view:  protocol.NewMapView(g, id, proto.Input(id)),
		seq:   make([]int, deg),
		votes: make([]int, deg),
		count: make([]int, deg),
	}
}

// ID implements network.Party.
func (p *uncodedParty) ID() graph.Node { return p.id }

// Send implements network.Party: round r of the real network carries
// repetition copy r%rep of Π round r/rep. One pass over the Π round
// fills every port the party speaks on; the round is sorted by
// (From, To), so those come in port order.
func (p *uncodedParty) Send(round int, out []bitstring.Symbol) {
	for port := range out {
		out[port] = bitstring.Silence
	}
	sched := p.proto.Schedule()
	pr := round / p.rep
	if pr >= sched.Rounds() {
		return
	}
	for _, tx := range sched.At(pr) {
		if tx.From != p.id {
			continue
		}
		port := graph.IndexOf(p.nbrs, tx.To)
		bit := p.proto.SendBit(p.view, pr, tx, p.seq[port]) & 1
		out[port] = bitstring.SymbolFromBit(bit)
		if round%p.rep == p.rep-1 {
			// Completed all copies: commit to own view on the last copy
			// (the commit round shared with the receiver).
			p.view.Record(tx.Link(), out[port])
			p.seq[port]++
		}
	}
}

// Deliver implements network.Party: majority-decode the repetition block.
func (p *uncodedParty) Deliver(round int, from graph.Node, port int, sym bitstring.Symbol) {
	sched := p.proto.Schedule()
	pr := round / p.rep
	if pr >= sched.Rounds() {
		return
	}
	l := channel.Link{From: from, To: p.id}
	scheduled := false
	for _, tx := range sched.At(pr) {
		if tx.Link() == l {
			scheduled = true
			break
		}
	}
	if !scheduled {
		return
	}
	if sym == bitstring.Sym1 {
		p.votes[port]++
	}
	if sym != bitstring.Silence {
		p.count[port]++
	}
	if round%p.rep == p.rep-1 {
		bit := byte(0)
		if 2*p.votes[port] > p.count[port] {
			bit = 1
		}
		p.view.Record(l, bitstring.SymbolFromBit(bit))
		p.votes[port] = 0
		p.count[port] = 0
	}
}

// RunUncoded executes Π directly over the noisy network (repetition = 1).
func RunUncoded(proto protocol.Protocol, adv adversary.Adversary) (*Result, error) {
	return runRepetition(proto, adv, 1)
}

// RunNaiveFEC executes Π with each transmission repeated rep times and
// majority-decoded — constant-factor redundancy with no feedback.
func RunNaiveFEC(proto protocol.Protocol, adv adversary.Adversary, rep int) (*Result, error) {
	if rep < 1 || rep%2 == 0 {
		return nil, errors.New("baseline: repetition factor must be odd and positive")
	}
	return runRepetition(proto, adv, rep)
}

func runRepetition(proto protocol.Protocol, adv adversary.Adversary, rep int) (*Result, error) {
	g := proto.Graph()
	if err := proto.Schedule().Validate(g); err != nil {
		return nil, err
	}
	parties := make([]network.Party, g.N())
	ups := make([]*uncodedParty, g.N())
	for i := 0; i < g.N(); i++ {
		ups[i] = newUncodedParty(graph.Node(i), proto, rep)
		parties[i] = ups[i]
	}
	metrics := &trace.Metrics{}
	eng, err := network.NewEngine(g, parties, adv, metrics)
	if err != nil {
		return nil, err
	}
	eng.RunRounds(0, proto.Schedule().Rounds()*rep)
	ref := protocol.RunReference(proto)
	res := &Result{
		Metrics:    metrics,
		CCProtocol: proto.Schedule().TotalBits(),
	}
	for i, up := range ups {
		if !bytes.Equal(proto.Output(up.view), ref.Outputs[i]) {
			res.WrongParties++
		}
	}
	res.Success = res.WrongParties == 0
	if res.CCProtocol > 0 {
		res.Blowup = float64(metrics.CC) / float64(res.CCProtocol)
	}
	return res, nil
}
