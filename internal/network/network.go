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
// Within a round the engine first collects Send for every outgoing
// directed link of every party, then applies channel noise, then calls
// Deliver for every incoming directed link of every party (Silence when
// nothing arrived). Implementations must not assume any ordering between
// parties within a round.
//
// Both calls name the neighbor twice: as a node and as a port, its
// position in the party's ascending neighbor list (graph.Neighbors), so
// a party can keep its per-link state in a slice indexed by port.
type Party interface {
	// ID returns the node this party occupies.
	ID() graph.Node
	// Send returns the symbol to transmit to neighbor `to`, at port
	// `port`, this round; Silence means the party stays quiet on that
	// link.
	Send(round int, to graph.Node, port int) bitstring.Symbol
	// Deliver hands the party what it observed from neighbor `from`, at
	// port `port`, this round (Silence when no symbol arrived).
	Deliver(round int, from graph.Node, port int, sym bitstring.Symbol)
}

// RoundEnder is an optional Party extension: EndRound is invoked after all
// of a round's deliveries, letting phase-structured parties finalize state
// exactly at phase boundaries.
type RoundEnder interface {
	EndRound(round int)
}

// Engine runs parties over a noisy network.
type Engine struct {
	g       *graph.Graph
	parties []Party
	adv     adversary.Adversary
	metrics *trace.Metrics
	links   []channel.Link // all directed links, deterministic order
	// sendPort[i] and recvPort[i] are links[i]'s port at its sender (the
	// receiver's position among the sender's neighbors) and at its
	// receiver (the sender's position among the receiver's neighbors).
	sendPort, recvPort []int
	phaseFn            func(round int) trace.Phase
	sendBuf            []bitstring.Symbol
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
		g:        g,
		parties:  parties,
		adv:      adv,
		metrics:  metrics,
		links:    links,
		sendPort: make([]int, len(links)),
		recvPort: make([]int, len(links)),
		sendBuf:  make([]bitstring.Symbol, len(links)),
	}
	for i, l := range links {
		e.sendPort[i] = graph.IndexOf(g.Neighbors(l.From), l.To)
		e.recvPort[i] = graph.IndexOf(g.Neighbors(l.To), l.From)
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

// SetPhaseFn installs the round → phase attribution used for per-phase CC
// accounting.
func (e *Engine) SetPhaseFn(fn func(round int) trace.Phase) { e.phaseFn = fn }

// RunRounds executes rounds [from, to).
func (e *Engine) RunRounds(from, to int) {
	for r := from; r < to; r++ {
		e.step(r)
	}
	if to > e.metrics.Rounds {
		e.metrics.Rounds = to
	}
}

// collectSends runs one round's Send phase into sendBuf. Both the
// synchronous and the virtual-time paths use it.
func (e *Engine) collectSends(round int) {
	for i, l := range e.links {
		e.sendBuf[i] = e.parties[l.From].Send(round, l.To, e.sendPort[i])
	}
}

func (e *Engine) step(round int) {
	if e.timing != nil {
		e.stepTimed(round)
		return
	}
	phase := trace.Phase(-1)
	if e.phaseFn != nil {
		phase = e.phaseFn(round)
	}
	// Collect phase: every party decides its outgoing symbols based on
	// deliveries from strictly earlier rounds.
	e.collectSends(round)
	// Noise + delivery phase.
	for i, l := range e.links {
		sent := e.sendBuf[i]
		if sent != bitstring.Silence {
			e.metrics.AddTransmission(phase)
		}
		recv := e.adv.Corrupt(round, l, sent)
		if k := channel.Classify(sent, recv); k != channel.KindNone {
			e.metrics.AddCorruption(k)
		}
		e.parties[l.To].Deliver(round, l.From, e.recvPort[i], recv)
	}
	for _, p := range e.parties {
		if re, ok := p.(RoundEnder); ok {
			re.EndRound(round)
		}
	}
}
