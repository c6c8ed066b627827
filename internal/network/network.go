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
	"runtime"
	"sort"
	"sync/atomic"

	"mpic/internal/adversary"
	"mpic/internal/bitstring"
	"mpic/internal/channel"
	"mpic/internal/cores"
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
type Party interface {
	// ID returns the node this party occupies.
	ID() graph.Node
	// Send returns the symbol to transmit to neighbor `to` this round;
	// Silence means the party stays quiet on that link.
	Send(round int, to graph.Node) bitstring.Symbol
	// Deliver hands the party what it observed from neighbor `from` this
	// round (Silence when no symbol arrived).
	Deliver(round int, from graph.Node, sym bitstring.Symbol)
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
	phaseFn func(round int) trace.Phase
	// Parallel computes the Send phase concurrently on a persistent
	// worker pool (started lazily, one pool per engine). Results are
	// identical to sequential execution because parties are independent
	// within a round. Call Close when done with a parallel engine to
	// release the workers. On a single-CPU process (GOMAXPROCS=1) the
	// flag is a no-op: the pool cannot win there, so the engine stays
	// sequential.
	Parallel bool

	sendBuf []bitstring.Symbol
	// ranges partitions links by sending party: links[r.start:r.end] all
	// originate at parties[r.from]. Precomputed once; both executors use
	// it, and pool workers write disjoint sendBuf regions because of it.
	ranges  []sendRange
	pool    *sendPool
	maxProc int // GOMAXPROCS snapshot taken at construction
	// timing, when non-nil, switches the engine onto the virtual-time
	// discrete-event path (see vtime.go). Installed by SetTiming; nil
	// engines run the classic synchronous loop.
	timing *timedState
	// forceTimed makes SetTiming install the DES path even for lockstep
	// models with no faults — test-only, to prove DES-under-unit-delay
	// is equivalent to the synchronous loop.
	forceTimed bool
	// parallelHint, when set, marks the rounds worth parallelizing. Most
	// rounds of the coding scheme move one symbol per link and are
	// dominated by the pool's synchronization; the caller (which knows the
	// phase layout) can restrict the pool to the rounds that concentrate
	// real compute, e.g. the consistency-check round that rehashes every
	// transcript. Unhinted parallel engines use the pool on every round.
	parallelHint func(round int) bool
	// budget, when non-nil, is the shared core-budget token pool this
	// engine borrows helper cores from (the elastic worker split: grid
	// cell workers hold tokens, and whatever is spare flows to heavy
	// rounds here). A nil budget means the engine owns the machine and
	// uses up to GOMAXPROCS workers as before.
	budget *cores.Budget
}

// sendRange is one party's contiguous run of outgoing directed links.
type sendRange struct {
	from       graph.Node
	start, end int
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
		g:       g,
		parties: parties,
		adv:     adv,
		metrics: metrics,
		links:   links,
		sendBuf: make([]bitstring.Symbol, len(links)),
	}
	for start := 0; start < len(links); {
		end := start
		for end < len(links) && links[end].From == links[start].From {
			end++
		}
		e.ranges = append(e.ranges, sendRange{from: links[start].From, start: start, end: end})
		start = end
	}
	e.maxProc = runtime.GOMAXPROCS(0)
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

// SetParallelHint restricts the parallel executor to rounds fn marks as
// heavy; see the Parallel field. Pass nil to parallelize every round.
func (e *Engine) SetParallelHint(fn func(round int) bool) { e.parallelHint = fn }

// SetCoreBudget points the parallel executor at a shared core-budget
// token pool. For every heavy round the engine borrows whatever helper
// cores are spare (possibly none — the round then runs sequentially on
// the caller's core, which holds its own token) and returns them when
// the round's sends are collected. Results are bit-identical at any
// borrow outcome. Pass nil (the default) to let the engine assume it
// owns the machine.
func (e *Engine) SetCoreBudget(b *cores.Budget) { e.budget = b }

// maxHelpers is the most helper workers a heavy round can use beyond the
// caller's own goroutine: one per additional core, capped by the number
// of work units (per-party send ranges).
func (e *Engine) maxHelpers() int {
	w := e.maxProc
	if w > len(e.ranges) {
		w = len(e.ranges)
	}
	return w - 1
}

// RunRounds executes rounds [from, to).
func (e *Engine) RunRounds(from, to int) {
	for r := from; r < to; r++ {
		e.step(r)
	}
	if to > e.metrics.Rounds {
		e.metrics.Rounds = to
	}
}

// collectSends runs one round's Send phase (sequential or pooled) into
// sendBuf. Both the synchronous and the virtual-time paths use it.
func (e *Engine) collectSends(round int) {
	if e.Parallel && len(e.ranges) > 1 && e.maxProc > 1 &&
		(e.parallelHint == nil || e.parallelHint(round)) {
		helpers := e.maxHelpers()
		if e.budget != nil {
			// Elastic split: take only what the grid's other workers are
			// not using, for the duration of this round's Send phase.
			helpers = e.budget.TryAcquire(helpers)
		}
		if helpers > 0 {
			if e.pool == nil {
				e.pool = newSendPool(e)
			}
			e.pool.collect(round, helpers)
			if e.budget != nil {
				e.budget.Release(helpers)
			}
			return
		}
		// Every core is busy elsewhere: run the heavy round on our own
		// core (the token we already hold) rather than oversubscribing.
	}
	for i, l := range e.links {
		e.sendBuf[i] = e.parties[l.From].Send(round, l.To)
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
		e.parties[l.To].Deliver(round, l.From, recv)
	}
	for _, p := range e.parties {
		if re, ok := p.(RoundEnder); ok {
			re.EndRound(round)
		}
	}
}

// Close releases the engine's worker pool, if one was started. The engine
// must not be stepped afterwards. Close is idempotent and safe on engines
// that never went parallel.
func (e *Engine) Close() {
	if e.pool != nil {
		close(e.pool.start)
		e.pool = nil
	}
}

// sendPool is the persistent parallel Send executor: a fixed set of
// helper workers that survives across rounds, replacing the
// goroutine-per-party-per-round pattern whose spawn cost swamped the
// per-round work at larger n. Parties are handed out via an atomic
// counter, so a slow party (deep in a rewind, say) does not serialize the
// round behind a static partition. The caller's goroutine always
// participates in the claim loop — its core is spoken for either way —
// and each round wakes only as many helpers as collect is told to use,
// which is how the elastic core budget throttles the pool round by
// round without tearing it down.
type sendPool struct {
	e       *Engine
	workers int // helper goroutines spawned (the caller is one more)
	next    atomic.Int64
	start   chan int      // round broadcast: one send per woken helper
	done    chan struct{} // one receive per woken helper per round
}

func newSendPool(e *Engine) *sendPool {
	w := e.maxHelpers()
	p := &sendPool{e: e, workers: w, start: make(chan int), done: make(chan struct{}, w)}
	for i := 0; i < w; i++ {
		go p.worker()
	}
	return p
}

// run claims send ranges until the round's work list is drained; both
// helpers and the collecting caller execute it.
func (p *sendPool) run(round int) {
	for {
		i := int(p.next.Add(1)) - 1
		if i >= len(p.e.ranges) {
			return
		}
		r := p.e.ranges[i]
		party := p.e.parties[r.from]
		for k := r.start; k < r.end; k++ {
			p.e.sendBuf[k] = party.Send(round, p.e.links[k].To)
		}
	}
}

func (p *sendPool) worker() {
	for round := range p.start {
		p.run(round)
		p.done <- struct{}{}
	}
}

// collect runs one round's Send phase on the pool — the caller plus up
// to helpers woken workers — and returns when every party's symbols are
// in sendBuf. The Store/send pair orders the counter reset before any
// helper starts, and the done receives order all helper sendBuf writes
// before the caller reads them.
func (p *sendPool) collect(round, helpers int) {
	if helpers > p.workers {
		helpers = p.workers
	}
	p.next.Store(0)
	for i := 0; i < helpers; i++ {
		p.start <- round
	}
	p.run(round)
	for i := 0; i < helpers; i++ {
		<-p.done
	}
}
