// Package network is the round engine of Section 2.1: in each round any
// subset of parties may transmit one symbol per incident link per
// direction; the adversary is consulted on every directed link every
// round (so it can insert into silent slots); deliveries happen at the
// end of the round, so information travels at one hop per round.
//
// The engine has two execution paths. The classic synchronous path is
// the paper's lockstep model — every symbol takes exactly one round. The
// virtual-time path (SetTiming; see vtime.go) runs the same rounds over
// a discrete-event core with per-symbol flight delays (DelayModel) and a
// network-fault schedule (FaultSchedule): a deadline synchronizer maps
// timing faults — late symbols, link outages, stragglers, crashed
// parties — onto the paper's insdel noise model, so the protocol and the
// coding scheme are untouched semantically. A symbol that meets its
// round's deadline fills its receiver's slot directly; only late symbols
// go on the event heap. Both paths are bit-exactly deterministic from
// their seeds at any GOMAXPROCS.
//
// The engine knows nothing of a protocol's phases. A phase-structured
// caller runs each phase with its own RunRounds call: before it, the
// caller sets the phase that per-phase CC is charged to (SetPhase); after
// it, the caller does the phase's boundary work on its parties itself.
package network

import (
	"fmt"
	"sort"

	"mpic/internal/adversary"
	"mpic/internal/bitstring"
	"mpic/internal/channel"
	"mpic/internal/graph"
	"mpic/internal/trace"
)

// Party is one protocol participant driven by the engine.
//
// Within a round the engine first calls Send once on every party, then
// applies channel noise, then calls Deliver for every incoming directed
// link of every party (Silence when nothing arrived). Implementations
// must not assume any ordering between parties within a round. The engine
// calls nothing between rounds: a protocol phase's boundary work is the
// caller's, between RunRounds calls.
//
// A party's links are numbered by port: a neighbor's position in the
// party's ascending neighbor list (graph.Neighbors), so a party can keep
// its per-link state in a slice indexed by port.
//
// Send is per party because a party decides all of a round's symbols
// from the same state: one call fills every port. Deliver stays per link
// because the lockstep engine interleaves each link's noise with its
// delivery, and an adversary that reads party state (a white-box
// attacker) sees the deliveries of the links before the one it corrupts.
type Party interface {
	// ID returns the node this party occupies.
	ID() graph.Node
	// Send writes the round's symbol for every port into out, one entry
	// per neighbor in port order; Silence means the party stays quiet on
	// that link. The engine does not clear out between rounds, so Send
	// writes every entry.
	Send(round int, out []bitstring.Symbol)
	// Deliver hands the party what it observed from neighbor `from`, at
	// port `port`, this round (Silence when no symbol arrived).
	Deliver(round int, from graph.Node, port int, sym bitstring.Symbol)
}

// Engine runs parties over a noisy network.
type Engine struct {
	g       *graph.Graph
	parties []Party
	adv     adversary.Adversary
	metrics *trace.Metrics
	// links holds all directed links ascending by (From, To), so party
	// p's outgoing links are links[sendStart[p]:sendStart[p+1]] in port
	// order, and sendBuf, by link, holds each party's Send output in one
	// run.
	links     []channel.Link
	sendStart []int
	// recvPort[i] is links[i]'s port at its receiver (the sender's
	// position among the receiver's neighbors).
	recvPort []int
	// phase is what AddTransmission charges this round's symbols to
	// (SetPhase); -1 charges CC alone.
	phase   trace.Phase
	sendBuf []bitstring.Symbol
	// timing, when non-nil, switches the engine onto the virtual-time
	// discrete-event path (see vtime.go). Installed by SetTiming; nil
	// engines run the classic synchronous loop.
	timing *timedState
	// forceTimed makes SetTiming install the DES path even for lockstep
	// models with no faults — test-only, to prove DES-under-unit-delay
	// is equivalent to the synchronous loop.
	forceTimed bool
}

// NewEngine wires parties (one per node, indexed by ID) to graph g with
// the given adversary. The metrics sink may be shared with the caller.
func NewEngine(g *graph.Graph, parties []Party, adv adversary.Adversary, metrics *trace.Metrics) (*Engine, error) {
	if len(parties) != g.N() {
		return nil, fmt.Errorf("network: %d parties for %d nodes", len(parties), g.N())
	}
	for i, p := range parties {
		if p.ID() != graph.Node(i) {
			return nil, fmt.Errorf("network: party %d has ID %d", i, p.ID())
		}
	}
	if adv == nil {
		adv = adversary.None{}
	}
	if metrics == nil {
		metrics = &trace.Metrics{}
	}
	var links []channel.Link
	for _, e := range g.Edges() {
		links = append(links, channel.Link{From: e.U, To: e.V}, channel.Link{From: e.V, To: e.U})
	}
	sort.Slice(links, func(i, j int) bool {
		if links[i].From != links[j].From {
			return links[i].From < links[j].From
		}
		return links[i].To < links[j].To
	})
	e := &Engine{
		g:         g,
		parties:   parties,
		adv:       adv,
		metrics:   metrics,
		links:     links,
		sendStart: make([]int, len(parties)+1),
		recvPort:  make([]int, len(links)),
		phase:     -1,
		sendBuf:   make([]bitstring.Symbol, len(links)),
	}
	for i, l := range links {
		e.recvPort[i] = graph.IndexOf(g.Neighbors(l.To), l.From)
	}
	for p := range parties {
		e.sendStart[p+1] = e.sendStart[p] + g.Degree(graph.Node(p))
	}
	if ca, ok := adv.(adversary.ContextAware); ok {
		ca.SetContext(e)
	}
	return e, nil
}

// CC implements adversary.Context.
func (e *Engine) CC() int64 { return e.metrics.CC }

// Metrics returns the engine's accounting sink.
func (e *Engine) Metrics() *trace.Metrics { return e.metrics }

// Links returns all directed links in deterministic order.
func (e *Engine) Links() []channel.Link {
	out := make([]channel.Link, len(e.links))
	copy(out, e.links)
	return out
}

// SetPhase sets the phase that the following RunRounds calls charge
// their transmissions to in Metrics.CCPhase. The default, -1, charges
// total CC only.
func (e *Engine) SetPhase(ph trace.Phase) { e.phase = ph }

// RunRounds executes rounds [from, to).
func (e *Engine) RunRounds(from, to int) {
	for r := from; r < to; r++ {
		e.step(r)
	}
	if to > e.metrics.Rounds {
		e.metrics.Rounds = to
	}
}

// collectSends runs one round's Send phase into sendBuf: one call per
// party, in party order, each filling its own run of links. Both the
// synchronous and the virtual-time paths use it.
func (e *Engine) collectSends(round int) {
	for p, pt := range e.parties {
		pt.Send(round, e.sendBuf[e.sendStart[p]:e.sendStart[p+1]])
	}
}

func (e *Engine) step(round int) {
	if e.timing != nil {
		e.stepTimed(round)
		return
	}
	// Collect phase: every party decides its outgoing symbols based on
	// deliveries from strictly earlier rounds.
	e.collectSends(round)
	// Noise + delivery phase.
	for i, l := range e.links {
		sent := e.sendBuf[i]
		if sent != bitstring.Silence {
			e.metrics.AddTransmission(e.phase)
		}
		recv := e.adv.Corrupt(round, l, sent)
		if k := channel.Classify(sent, recv); k != channel.KindNone {
			e.metrics.AddCorruption(k)
		}
		e.parties[l.To].Deliver(round, l.From, e.recvPort[i], recv)
	}
}
