package core

import (
	"bytes"
	"context"
	"errors"
	"fmt"

	"mpic/internal/adversary"
	"mpic/internal/channel"
	"mpic/internal/ecc"
	"mpic/internal/graph"
	"mpic/internal/hashing"
	"mpic/internal/meeting"
	"mpic/internal/network"
	"mpic/internal/potential"
	"mpic/internal/protocol"
	"mpic/internal/trace"
)

// RunInfo is handed to adversary factories so adaptive (non-oblivious)
// attackers can key their behavior to the public phase layout.
type RunInfo struct {
	// Links lists all directed links.
	Links []channel.Link
	// ExchangeRounds is the length of the randomness-exchange preamble.
	ExchangeRounds int
	// TotalRounds is the fixed length of the whole protocol.
	TotalRounds int
	// Iterations is the run's iteration budget (IterFactor·|Π|; with
	// early stop the run may execute fewer) — what a progress consumer
	// divides by to report "iteration i of N".
	Iterations int
	// PhaseOracle maps a round to (phase, iteration); phases use the
	// trace.Phase numbering.
	PhaseOracle adversary.PhaseOracle
}

// Options configures one run of a coding scheme.
type Options struct {
	// Protocol is the noiseless Π to simulate.
	Protocol protocol.Protocol
	// Params are the scheme parameters (see ParamsFor).
	Params Params
	// Adversary injects channel noise; nil means noiseless.
	Adversary adversary.Adversary
	// AdversaryFactory, if set, builds the adversary after the phase
	// layout is known (non-oblivious attackers); it overrides Adversary.
	AdversaryFactory func(info RunInfo) adversary.Adversary
	// WhiteBoxRate, if positive, overrides both adversary fields with the
	// seed-aware collision attacker of Section 6.1 at the given
	// corruption rate — the strongest non-oblivious attack implemented.
	WhiteBoxRate float64
	// Delay, if non-nil and not lockstep (or if NetFaults is set), runs
	// the network on the virtual-time discrete-event path with the given
	// flight-delay model; Metrics.Net then reports the timing story. Nil
	// or lockstep with no faults keeps the classic synchronous engine.
	Delay network.DelayModel
	// NetFaults, if non-nil, is the network-fault schedule (outages,
	// spikes, stragglers, crash-restarts) wired over the run's party
	// count and round budget.
	NetFaults *network.FaultSchedule
	// Observers receive per-iteration callbacks (and, when they implement
	// the optional extensions, run start/end callbacks). Observers watch;
	// they cannot influence the run.
	Observers []Observer
	// Context, if non-nil, cancels the run between iterations: Run
	// returns ctx.Err() and no Result. Cancellation granularity is one
	// iteration — a round in flight always completes.
	Context context.Context
	// Arena, if non-nil, supplies recycled per-link hash buffers and gets
	// them back when the run ends (see Arena).
	Arena *Arena
}

// WhiteBoxStats reports the collision attacker's bookkeeping.
type WhiteBoxStats struct {
	// Tried counts chunk-final slots the attacker inspected.
	Tried int
	// Landed counts corruptions fired with a guaranteed hash collision.
	Landed int
}

// Result reports one run.
type Result struct {
	// Success means every party's output equals the noiseless reference.
	Success bool
	// Metrics is the network accounting.
	Metrics *trace.Metrics
	// CCProtocol is CC(Π) in bits.
	CCProtocol int
	// Blowup is Metrics.CC / CCProtocol.
	Blowup float64
	// NumChunks is |Π| in chunks.
	NumChunks int
	// Iterations actually executed (≤ IterFactor·|Π| with early stop).
	Iterations int
	// GStar is the network-wide agreed prefix at the end, in chunks.
	GStar int
	// BrokenSeedLinks counts links whose randomness exchange failed.
	BrokenSeedLinks int
	// WrongParties counts parties whose output differs from the
	// reference.
	WrongParties int
	// Potential holds per-iteration snapshots when the oracle is on.
	Potential []potential.Snapshot
	// Outputs are the parties' final outputs.
	Outputs [][]byte
	// WhiteBox reports the collision attacker's statistics when
	// WhiteBoxRate was set.
	WhiteBox *WhiteBoxStats
	// Arena reports this run's draw on the shared arena's buffer pool
	// (nil when the run had no arena). The counters are the arena-wide
	// delta between run start and end: exact when runs use the arena one
	// at a time, and an interleaved attribution when a parallel grid
	// shares the arena — use Arena.Stats for exact aggregates there.
	Arena *ArenaStats
}

// Run executes the coding scheme on a noisy network and checks the
// outcome against a noiseless reference execution.
func Run(opts Options) (*Result, error) {
	if opts.Protocol == nil {
		return nil, errors.New("core: no protocol")
	}
	p := opts.Params
	if err := p.Validate(); err != nil {
		return nil, err
	}
	g := opts.Protocol.Graph()
	if g.N() < 2 {
		return nil, errors.New("core: need at least two parties")
	}
	sched := opts.Protocol.Schedule()
	if sched.TotalBits() == 0 {
		return nil, errors.New("core: protocol has no communication")
	}
	if err := sched.Validate(g); err != nil {
		return nil, err
	}

	chunking := protocol.NewChunking(opts.Protocol, p.ChunkBits)
	numChunks := chunking.NumChunks()
	iters := p.IterFactor * numChunks
	if iters < 1 {
		iters = 1
	}

	e := &env{
		params:    p,
		g:         g,
		proto:     opts.Protocol,
		chunking:  chunking,
		tree:      g.BFSTree(0),
		arena:     opts.Arena,
		numChunks: numChunks,
		crsK0:     uint64(p.CRSKey)*0x9e3779b97f4a7c15 + 0x853c49e6748fea9b,
		crsK1:     uint64(p.CRSKey)*0xda942042e4dd58b5 + 0xd1342543de82ef95,
	}

	// Hash input sizing: the longest transcript any link can reach is one
	// chunk per iteration.
	maxChunkBits := chunkIndexBits + 2*chunking.MaxSlotsPerLink
	maxLen := (iters + 1) * maxChunkBits
	e.hash = hashing.NewInnerProductHash(p.HashBits, maxLen)
	e.seedLay = hashing.NewSeedLayout(e.hash)
	if p.HashMode != HashLegacy && !e.seedLay.RegionsDisjoint(iters) {
		// The stable seed region starts at word 2^34 ≈ 1.7×10^10 (see
		// hashing.stableBase for the sizing rationale); realistic budgets
		// consume 10^8–10^9 per-iteration seed words, so only
		// far-beyond-configured runs can get here.
		return nil, fmt.Errorf("core: iteration budget %d overruns the stable seed region", iters)
	}
	if p.HashMode == HashEpoch {
		epochs := (iters-1)/e.epochR() + 1
		if !e.seedLay.EpochsFit(epochs) {
			return nil, fmt.Errorf("core: %d refresh epochs overrun the epoch seed region (iters=%d, EpochRefresh=%d); raise EpochRefresh or select HashLegacy", epochs, iters, p.EpochRefresh)
		}
	}
	// Pre-size the per-link seed caches for the transcript lengths runs
	// actually reach — |Π| chunks plus slack for dummy chunks — so the
	// hash path settles into zero steady-state allocation quickly without
	// reserving the (iters+1)-chunk worst case per link.
	e.seedHintWords = ((numChunks+2)*maxChunkBits + 63) / 64

	lay := &layout{
		mpRounds:     3 * p.HashBits,
		simRounds:    1 + chunking.MaxChunkRounds,
		rewindRounds: g.N(),
		iters:        iters,
	}
	if e.tree.Depth >= 2 && !p.DisableFlagPassing {
		lay.flagRounds = 2*e.tree.Depth - 2
	}
	if p.DisableRewind {
		lay.rewindRounds = 0
	}
	if p.Randomness == RandExchange {
		codec, err := ecc.NewBitCodec(seedBits, p.RSBlockN, p.RSBlockK)
		if err != nil {
			return nil, fmt.Errorf("core: exchange codec: %w", err)
		}
		e.codec = codec
		lay.exchangeRounds = codec.CodewordBits()
	}
	e.lay = lay

	var arenaStart ArenaStats
	if opts.Arena != nil {
		// Party construction below is where the run draws its pooled
		// buffers; snapshot first so Result.Arena is the run's own delta.
		arenaStart = opts.Arena.Stats()
	}
	parties := make([]network.Party, g.N())
	coreParties := make([]*party, g.N())
	for i := 0; i < g.N(); i++ {
		cp := newParty(e, graph.Node(i))
		coreParties[i] = cp
		parties[i] = cp
	}
	if opts.Arena != nil {
		defer func() {
			for _, cp := range coreParties {
				opts.Arena.release(cp)
			}
		}()
	}

	makeInfo := func() RunInfo {
		info := RunInfo{
			ExchangeRounds: lay.exchangeRounds,
			TotalRounds:    lay.totalRounds(),
			Iterations:     lay.iters,
			PhaseOracle: func(round int) (int, int) {
				it, ph, _ := lay.phaseAt(round)
				return int(ph), it
			},
		}
		var links []channel.Link
		for _, edge := range g.Edges() {
			links = append(links,
				channel.Link{From: edge.U, To: edge.V},
				channel.Link{From: edge.V, To: edge.U})
		}
		info.Links = links
		return info
	}

	metrics := &trace.Metrics{}
	adv := opts.Adversary
	if opts.AdversaryFactory != nil {
		adv = opts.AdversaryFactory(makeInfo())
	}
	var whitebox *whiteBoxAttacker
	if opts.WhiteBoxRate > 0 {
		whitebox = newWhiteBoxAttacker(e, coreParties, opts.WhiteBoxRate)
		adv = whitebox
	}
	eng, err := network.NewEngine(g, parties, adv, metrics)
	if err != nil {
		return nil, err
	}
	if opts.Delay != nil || opts.NetFaults != nil {
		var wired *network.WiredFaults
		if opts.NetFaults != nil {
			wired, err = opts.NetFaults.Wire(g.N(), lay.totalRounds())
			if err != nil {
				return nil, err
			}
		}
		eng.SetTiming(opts.Delay, wired)
	}
	eng.SetPhaseFn(func(round int) trace.Phase {
		_, ph, _ := lay.phaseAt(round)
		return ph
	})

	ref := protocol.RunReference(opts.Protocol)

	res := &Result{
		Metrics:    metrics,
		CCProtocol: sched.TotalBits(),
		NumChunks:  numChunks,
	}

	for _, o := range opts.Observers {
		if so, ok := o.(RunStartObserver); ok {
			so.RunStarted(makeInfo())
		}
	}
	if err := cancelled(opts.Context); err != nil {
		return nil, err
	}

	eng.RunRounds(0, lay.exchangeRounds)
	oracle := newOracle(e, coreParties, metrics)
	executed := 0
	for it := 0; it < iters; it++ {
		if err := cancelled(opts.Context); err != nil {
			return nil, err
		}
		start := lay.iterStart(it)
		eng.RunRounds(start, start+lay.iterRounds())
		executed++
		metrics.Iterations = executed
		var snap *potential.Snapshot
		if p.Oracle {
			s := oracle.observe(it)
			res.Potential = append(res.Potential, s)
			snap = &res.Potential[len(res.Potential)-1]
		}
		notifyIteration(opts.Observers, IterationStats{Iteration: it, Metrics: metrics, Snapshot: snap}, coreParties)
		if p.Oracle && p.EarlyStop && oracle.done() {
			break
		}
	}
	res.Iterations = executed

	// Collect outcomes.
	res.GStar = oracle.gStar()
	for _, cp := range coreParties {
		for _, ls := range cp.links {
			if ls.seedBroken {
				res.BrokenSeedLinks++
			}
		}
	}
	res.Outputs = make([][]byte, g.N())
	for i, cp := range coreParties {
		res.Outputs[i] = opts.Protocol.Output(codedView{p: cp})
		if !bytes.Equal(res.Outputs[i], ref.Outputs[i]) {
			res.WrongParties++
		}
	}
	res.Success = res.WrongParties == 0
	if res.CCProtocol > 0 {
		res.Blowup = float64(metrics.CC) / float64(res.CCProtocol)
	}
	if whitebox != nil {
		res.WhiteBox = &WhiteBoxStats{Tried: whitebox.Tried, Landed: whitebox.Landed}
	}
	if opts.Arena != nil {
		delta := opts.Arena.Stats().Sub(arenaStart)
		res.Arena = &delta
	}
	for _, o := range opts.Observers {
		if eo, ok := o.(RunEndObserver); ok {
			eo.RunDone(res)
		}
	}
	return res, nil
}

// cancelled reports a context's cancellation as its error, tolerating a
// nil context.
func cancelled(ctx context.Context) error {
	if ctx == nil {
		return nil
	}
	select {
	case <-ctx.Done():
		return ctx.Err()
	default:
		return nil
	}
}

// oracle is engine-side ground-truth instrumentation. It never feeds
// information back to the parties.
type oracle struct {
	e       *env
	parties []*party
	metrics *trace.Metrics
	edges   []graph.Edge
	lastOK  bool
}

func newOracle(e *env, parties []*party, metrics *trace.Metrics) *oracle {
	return &oracle{e: e, parties: parties, metrics: metrics, edges: e.g.Edges()}
}

// edgeState gathers both endpoints' view of one link.
func (o *oracle) edgeState(edge graph.Edge) potential.EdgeState {
	lu := o.parties[edge.U].link(edge.V)
	lv := o.parties[edge.V].link(edge.U)
	return potential.EdgeState{
		LenU:   lu.T.Len(),
		LenV:   lv.T.Len(),
		Common: CommonPrefixChunks(lu.T, lv.T),
		InMPU:  lu.mp.Status == meeting.StatusMeetingPoints,
		InMPV:  lv.mp.Status == meeting.StatusMeetingPoints,
		KU:     lu.mp.K,
		KV:     lv.mp.K,
	}
}

// observe snapshots the network at an iteration boundary: it detects
// undetected mismatches (evidence of hash collisions — the transcripts
// differ yet neither endpoint is searching) and computes the potential.
func (o *oracle) observe(iter int) potential.Snapshot {
	states := make([]potential.EdgeState, len(o.edges))
	ok := true
	for i, edge := range o.edges {
		st := o.edgeState(edge)
		states[i] = st
		if st.B() > 0 {
			ok = false
			if !st.InMPU && !st.InMPV {
				o.metrics.HashCollisions++
			}
		}
		if st.LenU < o.e.numChunks || st.LenV < o.e.numChunks {
			ok = false
		}
		o.metrics.HashComparisons += 3
	}
	o.lastOK = ok
	k := o.e.params.ChunkBits / 5
	ehc := o.metrics.TotalCorruptions() + o.metrics.HashCollisions
	return potential.Compute(iter, states, k, len(o.edges), ehc)
}

// done reports whether the network is fully synchronized with all of Π
// simulated — the oracle's early-stop condition.
func (o *oracle) done() bool { return o.lastOK }

// gStar returns the final network-wide agreed prefix.
func (o *oracle) gStar() int {
	g := -1
	for _, edge := range o.edges {
		st := o.edgeState(edge)
		if g < 0 || st.Common < g {
			g = st.Common
		}
	}
	if g < 0 {
		g = 0
	}
	return g
}
