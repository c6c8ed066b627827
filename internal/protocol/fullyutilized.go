package protocol

import (
	"slices"

	"mpic/internal/bitstring"
	"mpic/internal/channel"
	"mpic/internal/graph"
)

// FullyUtilized converts a protocol to the fully-utilized model used by
// RS94/HS16/ABE+16: every directed link carries a symbol every round.
// Rounds keep their original content on scheduled transmissions and send
// 0 everywhere else.
//
// The paper's Section 1 observes that this conversion can inflate the
// communication complexity by a factor of up to m, which is exactly why
// its schemes work in the relaxed (non-fully-utilized) model; experiment
// E-F11 measures the inflation. In the fully-utilized model insertions
// and deletions also collapse to substitutions and erasures, because a
// missing symbol at a round where one is always expected is evidence of
// noise.
type FullyUtilized struct {
	inner Protocol
	sched *Schedule
}

var _ Protocol = (*FullyUtilized)(nil)

// NewFullyUtilized wraps inner so that all links speak every round.
func NewFullyUtilized(inner Protocol) *FullyUtilized {
	g := inner.Graph()
	all := make([]Transmission, 0, 2*g.M())
	for _, e := range g.Edges() {
		all = append(all,
			Transmission{From: e.U, To: e.V},
			Transmission{From: e.V, To: e.U})
	}
	slices.SortFunc(all, txCmp)
	rounds := make([][]Transmission, inner.Schedule().Rounds())
	slab := make([]Transmission, len(rounds)*len(all))
	for r := range rounds {
		rounds[r] = slab[r*len(all) : (r+1)*len(all) : (r+1)*len(all)]
		copy(rounds[r], all)
	}
	return &FullyUtilized{inner: inner, sched: NewSchedule(rounds)}
}

// Name implements Protocol.
func (p *FullyUtilized) Name() string { return p.inner.Name() + "+fully-utilized" }

// Graph implements Protocol.
func (p *FullyUtilized) Graph() *graph.Graph { return p.inner.Graph() }

// Schedule implements Protocol.
func (p *FullyUtilized) Schedule() *Schedule { return p.sched }

// Input implements Protocol.
func (p *FullyUtilized) Input(n graph.Node) []byte { return p.inner.Input(n) }

// innerSeq maps a fully-utilized transmission back to the inner
// protocol's sequence number on the same link, if the inner protocol
// scheduled one at this round.
func (p *FullyUtilized) innerTx(r int, tx Transmission) (int, bool) {
	for _, itx := range p.inner.Schedule().At(r) {
		if itx == tx {
			return p.inner.Schedule().CountBefore(tx.Link(), r), true
		}
	}
	return 0, false
}

// SendBit implements Protocol: scheduled inner transmissions keep their
// content; padding slots carry 0.
func (p *FullyUtilized) SendBit(v View, r int, tx Transmission, _ int) byte {
	if seq, ok := p.innerTx(r, tx); ok {
		return p.inner.SendBit(fuView{outer: v, p: p}, r, tx, seq)
	}
	return 0
}

// Output implements Protocol: the inner protocol's output over the
// projected view.
func (p *FullyUtilized) Output(v View) []byte {
	return p.inner.Output(fuView{outer: v, p: p})
}

// fuView projects a fully-utilized view back onto the inner protocol's
// sparse sequence numbering: inner seq i on link l lives at the
// fully-utilized seq equal to the round of the inner transmission (one
// slot per round per link in the fully-utilized schedule).
type fuView struct {
	outer View
	p     *FullyUtilized
}

var _ View = fuView{}

// Self implements View.
func (v fuView) Self() graph.Node { return v.outer.Self() }

// Input implements View.
func (v fuView) Input() []byte { return v.outer.Input() }

// Observed implements View.
func (v fuView) Observed(l channel.Link, seq int) bitstring.Symbol {
	rounds := v.p.inner.Schedule().roundsOn(l)
	if seq < 0 || seq >= len(rounds) {
		return bitstring.Silence
	}
	// In the fully-utilized schedule, link l transmits exactly once per
	// round, so the outer sequence number equals the round number.
	return v.outer.Observed(l, int(rounds[seq]))
}
