package core

import (
	"math/rand"

	"mpic/internal/bitstring"
	"mpic/internal/ecc"
	"mpic/internal/graph"
	"mpic/internal/hashing"
	"mpic/internal/meeting"
	"mpic/internal/network"
	"mpic/internal/protocol"
	"mpic/internal/trace"
)

// env bundles everything shared (read-only) by all parties of a run.
type env struct {
	params    Params
	g         *graph.Graph
	proto     protocol.Protocol
	chunking  *protocol.Chunking
	tree      *graph.SpanningTree
	lay       *layout
	hash      *hashing.InnerProductHash
	seedLay   *hashing.SeedLayout
	numChunks int // |Π| in chunks
	codec     *ecc.BitCodec
	crsK0     uint64
	crsK1     uint64
	// arena, when non-nil, recycles the block-cache buffers across runs.
	arena *Arena
	// seedHintWords pre-sizes the per-link prefix-hash seed caches: the
	// row-prefix length (in words) a run's transcripts are expected to
	// reach, derived from the chunking when the layout is built.
	seedHintWords int
}

// linkState is one endpoint's per-link state: the pairwise transcript, the
// meeting-points counters, the shared seed stream, and the scratch buffers
// of the current phase.
type linkState struct {
	peer graph.Node
	edge graph.Edge
	eid  int // edge ID (graph.EdgeIndex): indexes ChunkSpec.LinkSlots
	// port is the link's position in the party's neighbor order, and so
	// in party.links; per-link scratch that must not allocate per round
	// (the rewind plan) is indexed by it too.
	port int
	T    *Transcript
	mp   *meeting.State
	src  hashing.SeedSource
	// ck, c1, c2 are the materialized seed blocks for the current
	// iteration's three hash slots (counter, mp1 prefix, mp2 prefix); they
	// are re-pointed by prepareIteration and feed the allocation-free
	// kernel.
	ck, c1, c2 *hashing.BlockCache
	// p1, p2 replace c1, c2 in the checkpointed mode (HashEpoch):
	// rewind-aware checkpointed hashers over the stable seed region, whose
	// cost per evaluation is proportional to transcript growth, not
	// length. prepareIteration rebases them onto a fresh seed block every
	// EpochRefresh iterations.
	p1, p2 *hashing.Checkpointed
	// h is the link's meeting.Hasher, boxed once at source binding so the
	// per-iteration hash calls do not re-box the interface value.
	h    meeting.Hasher
	iter int // iteration whose seeds the hasher uses

	alreadyRewound bool

	// Meeting-points phase buffers: 3τ bits each way, plus the unpacked
	// form of the outgoing message (Step reuses it as the endpoint's side
	// of the comparison instead of re-hashing).
	mpOut  []byte
	mpRecv []byte
	mpOwn  meeting.Message

	// Simulation phase state.
	skip     bool // received ⊥ this iteration
	simChunk int  // chunk index being simulated; 0 = none
	spec     *protocol.ChunkSpec
	slots    []protocol.Slot
	cursor   int // slotAt's position in slots
	pending  []bitstring.Symbol

	// Randomness-exchange state.
	exchSend   []byte // codeword bits (sender side)
	exchRecv   []byte
	exchErased []bool
	seedBroken bool
}

// hasher adapts a linkState to meeting.Hasher using the per-iteration
// seed blocks both endpoints share.
type hasher struct {
	env *env
	ls  *linkState
}

// HashK implements meeting.Hasher via the allocation-free cached kernel;
// prepareIteration points the block caches at the current iteration's
// seed blocks before any hash is evaluated.
func (h hasher) HashK(k int) uint64 {
	return h.env.hash.HashWordCached(uint64(k), meeting.KWidth, h.ls.ck)
}

// HashPrefix implements meeting.Hasher. In the checkpointed modes the
// evaluation resumes from the checkpointed accumulators; under
// HashLegacy it sweeps the materialized per-iteration seed block.
func (h hasher) HashPrefix(chunks int, slot int) uint64 {
	if h.ls.p1 != nil {
		p := h.ls.p1
		if slot == 2 {
			p = h.ls.p2
		}
		return p.HashPrefix(h.ls.T.PrefixBits(chunks))
	}
	c := h.ls.c1
	if slot == 2 {
		c = h.ls.c2
	}
	return h.env.hash.HashPrefixCached(h.ls.T.Bits(), h.ls.T.PrefixBits(chunks), c)
}

// party is one node's implementation of the coding scheme: a state
// machine over the fixed phase layout, driven by the network engine.
type party struct {
	env       *env
	id        graph.Node
	neighbors []graph.Node
	links     []*linkState // by port: links[i] is the link to neighbors[i]

	status     bool // the party's own continue/idle flag
	flagAgg    bool // AND of own status and children's upward flags
	netCorrect bool

	preparedIter int // iteration whose MP messages are prepared (-1 none)

	rewindRound int // round whose rewind decisions are already planned
	// rewindPlan[port] says whether a rewind symbol is pending for the
	// link at that port. A reusable slice rather than a map:
	// planRewinds runs every rewind round of every iteration, and
	// per-round map churn showed up as steady-state allocation.
	rewindPlan []bool

	// Memoized phase decomposition of the last round seen: Send, Deliver
	// and EndRound each decompose the same round once per link, and the
	// layout division showed up in profiles.
	phRound int
	phIter  int
	phPh    trace.Phase
	phRel   int
}

// phaseAt is the memoizing wrapper over layout.phaseAt.
func (p *party) phaseAt(round int) (int, trace.Phase, int) {
	if p.phRound != round {
		p.phIter, p.phPh, p.phRel = p.env.lay.phaseAt(round)
		p.phRound = round
	}
	return p.phIter, p.phPh, p.phRel
}

var _ network.Party = (*party)(nil)
var _ network.RoundEnder = (*party)(nil)

func newParty(e *env, id graph.Node) *party {
	p := &party{
		env:          e,
		id:           id,
		neighbors:    e.g.Neighbors(id),
		links:        make([]*linkState, len(e.g.Neighbors(id))),
		status:       true,
		netCorrect:   true,
		preparedIter: -1,
		rewindRound:  -1,
		phRound:      -1,
		rewindPlan:   make([]bool, len(e.g.Neighbors(id))),
	}
	for i, v := range p.neighbors {
		p.links[i] = &linkState{
			peer: v,
			edge: graph.Edge{U: id, V: v}.Canonical(),
			eid:  e.g.EdgeIndex(id, v),
			port: i,
			T:    NewTranscript(),
			mp:   meeting.NewState(),
		}
	}
	p.initSeeds()
	return p
}

// initSeeds prepares the per-link randomness. In CRS mode both endpoints
// derive the same stream from the common key immediately; in exchange
// mode the sender samples a short seed and encodes it, and sources are
// built when the exchange phase completes.
func (p *party) initSeeds() {
	// The party's private randomness, made on an exchange sender's first
	// draw. Links go in neighbor order, so the senders draw their seeds
	// in that order.
	var rng *rand.Rand
	for _, ls := range p.links {
		if p.env.params.Randomness == RandCRS {
			a, b := crsLinkSeed(p.env.crsK0, p.env.crsK1, ls.edge)
			p.env.bindSource(ls, p.env.newSource(a, b))
			continue
		}
		if p.isExchangeSender(ls) {
			if rng == nil {
				rng = rand.New(rand.NewSource(p.env.params.CRSKey ^ (0x5851f42d4c957f2d * int64(p.id+1))))
			}
			seed := make([]byte, seedBits)
			for i := range seed {
				seed[i] = byte(rng.Intn(2))
			}
			enc, err := p.env.codec.EncodeBits(seed)
			if err != nil {
				// The codec is sized for seedBits at construction; an
				// error here is a programming bug, not a runtime state.
				panic(err)
			}
			ls.exchSend = enc
			a, b := seedToWords(seed)
			p.env.bindSource(ls, p.env.newSource(a, b))
		} else {
			ls.exchRecv = make([]byte, 0, p.env.codec.CodewordBits())
			ls.exchErased = make([]bool, 0, p.env.codec.CodewordBits())
		}
	}
}

// epochR returns the effective seed-refresh interval for HashEpoch,
// tolerating manually built test envs that never ran Params.Validate.
func (e *env) epochR() int {
	if r := e.params.EpochRefresh; r > 0 {
		return r
	}
	return DefaultEpochRefresh
}

// bindSource installs a link's seed stream and builds its per-slot hash
// state over it, pre-sized from the layout so steady-state hashing
// allocates nothing: per-iteration block caches for the counter slot and
// — depending on Params.HashMode — either per-iteration caches
// (HashLegacy) or checkpointed hashers over the stable seed region for
// the two prefix slots (HashEpoch starts in epoch 0, whose block
// coincides with StableOffset; prepareIteration rebases it every
// EpochRefresh iterations). Exchange-mode receivers bind late
// (finishExchange); everyone else binds at construction.
func (e *env) bindSource(ls *linkState, src hashing.SeedSource) {
	ls.src = src
	var pool *hashing.BufferPool
	if e.arena != nil {
		pool = &e.arena.pool
	}
	ls.ck = hashing.NewBlockCacheIn(pool, e.hash, src, 1)
	if e.params.HashMode != HashLegacy {
		bits := ls.T.Bits()
		ls.p1 = hashing.NewCheckpointedIn(pool, e.hash, src, e.seedLay.EpochOffset(hashing.SlotMP1, 0), bits, e.seedHintWords, 0)
		ls.p2 = hashing.NewCheckpointedIn(pool, e.hash, src, e.seedLay.EpochOffset(hashing.SlotMP2, 0), bits, e.seedHintWords, 0)
	} else {
		ls.c1 = hashing.NewBlockCacheIn(pool, e.hash, src, e.seedHintWords)
		ls.c2 = hashing.NewBlockCacheIn(pool, e.hash, src, e.seedHintWords)
	}
	ls.h = hasher{env: e, ls: ls}
}

// seedBits is the short uniform seed length exchanged per link: two
// GF(2^64) elements for the AGHP generator (or a 128-bit PRF key).
const seedBits = 128

// isExchangeSender fixes the arbitrary total order of Algorithm 5: the
// lower node id samples and transmits the seed.
func (p *party) isExchangeSender(ls *linkState) bool { return p.id < ls.peer }

// crsLinkSeed derives a per-link 128-bit seed from the common random
// string; both endpoints compute the same value.
func crsLinkSeed(k0, k1 uint64, e graph.Edge) (uint64, uint64) {
	salt := uint64(e.U)*0x1000003 + uint64(e.V) + 1
	mix := func(x uint64) uint64 {
		x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
		x = (x ^ (x >> 27)) * 0x94d049bb133111eb
		return x ^ (x >> 31)
	}
	return mix(k0 ^ salt), mix(k1 ^ (salt * 0x9e3779b97f4a7c15))
}

func (e *env) newSource(a, b uint64) hashing.SeedSource {
	if e.params.SeedKind == SeedAGHP {
		return hashing.NewAGHPSource(a, b)
	}
	return hashing.NewPRFSource(a, b)
}

func seedToWords(bits []byte) (uint64, uint64) {
	var a, b uint64
	for i := 0; i < 64 && i < len(bits); i++ {
		a |= uint64(bits[i]&1) << uint(i)
	}
	for i := 64; i < 128 && i < len(bits); i++ {
		b |= uint64(bits[i]&1) << uint(i-64)
	}
	return a, b
}

// ID implements network.Party.
func (p *party) ID() graph.Node { return p.id }

// link returns the state of the link to peer, or nil if peer is not a
// neighbor.
func (p *party) link(peer graph.Node) *linkState {
	if i := graph.IndexOf(p.neighbors, peer); i >= 0 {
		return p.links[i]
	}
	return nil
}

// Send implements network.Party.
func (p *party) Send(round int, to graph.Node, port int) bitstring.Symbol {
	iter, ph, rel := p.phaseAt(round)
	ls := p.links[port]
	switch ph {
	case trace.PhaseExchange:
		if ls.exchSend != nil && rel < len(ls.exchSend) {
			return bitstring.SymbolFromBit(ls.exchSend[rel])
		}
		return bitstring.Silence
	case trace.PhaseMeetingPoints:
		if p.preparedIter != iter {
			p.prepareIteration(iter)
		}
		return bitstring.SymbolFromBit(ls.mpOut[rel])
	case trace.PhaseFlagPassing:
		return p.flagSend(rel, to)
	case trace.PhaseSimulation:
		return p.simSend(rel, ls)
	default: // rewind
		p.planRewinds(round)
		if p.rewindPlan[port] {
			p.rewindPlan[port] = false
			return bitstring.Sym1
		}
		return bitstring.Silence
	}
}

// Deliver implements network.Party.
func (p *party) Deliver(round int, from graph.Node, port int, sym bitstring.Symbol) {
	_, ph, rel := p.phaseAt(round)
	ls := p.links[port]
	switch ph {
	case trace.PhaseExchange:
		if ls.exchRecv != nil && rel < p.env.codec.CodewordBits() {
			ls.exchRecv = append(ls.exchRecv, sym.Bit())
			ls.exchErased = append(ls.exchErased, sym == bitstring.Silence)
		}
	case trace.PhaseMeetingPoints:
		ls.mpRecv[rel] = sym.Bit()
	case trace.PhaseFlagPassing:
		p.flagDeliver(rel, from, sym)
	case trace.PhaseSimulation:
		p.simDeliver(rel, ls, sym)
	default: // rewind
		if sym == bitstring.Silence {
			return
		}
		if ls.mp.Status != meeting.StatusMeetingPoints && !ls.alreadyRewound {
			ls.T.TruncateTo(ls.T.Len() - 1)
			ls.alreadyRewound = true
		}
	}
}

// EndRound implements network.RoundEnder: phase-boundary finalization.
func (p *party) EndRound(round int) {
	iter, ph, rel := p.phaseAt(round)
	if !p.env.lay.lastOf(ph, rel, round) {
		// The ⊥ round inside the simulation phase also needs
		// finalization: chunk simulation state is set up only once all
		// ⊥ symbols of the round have been seen.
		if ph == trace.PhaseSimulation && rel == 0 {
			p.beginSimulation()
		}
		return
	}
	switch ph {
	case trace.PhaseExchange:
		p.finishExchange()
	case trace.PhaseMeetingPoints:
		p.finishMeetingPoints()
		if p.env.lay.flagRounds == 0 {
			// Flag passing ablated (or trivial tree): a party trusts its
			// own status only.
			p.netCorrect = p.status
		}
		if p.env.lay.simRounds == 1 {
			// Degenerate: no chunk rounds (cannot happen with a real
			// protocol, but keep the machine total).
			p.beginSimulation()
		}
	case trace.PhaseFlagPassing:
		// netCorrect was fixed during delivery; nothing to finalize.
	case trace.PhaseSimulation:
		p.finishSimulation()
	default: // rewind: end of the iteration
		_ = iter
	}
}

// prepareIteration computes the meeting-points messages for iteration it
// and resets the per-iteration link scratch state. The mpOut/mpRecv
// buffers and the seed block caches are reused across iterations, so in
// steady state this performs zero allocations; mpRecv needs no clearing
// because the engine delivers exactly one symbol per slot of the phase,
// overwriting all 3τ positions.
func (p *party) prepareIteration(it int) {
	p.preparedIter = it
	tau := p.env.params.HashBits
	for _, ls := range p.links {
		ls.iter = it
		ls.alreadyRewound = false
		ls.skip = false
		ls.ck.SetBlock(p.env.seedLay.Offset(it, hashing.SlotK))
		if ls.p1 == nil {
			// Per-iteration prefix seeds: re-point the caches at this
			// iteration's blocks.
			ls.c1.SetBlock(p.env.seedLay.Offset(it, hashing.SlotMP1))
			ls.c2.SetBlock(p.env.seedLay.Offset(it, hashing.SlotMP2))
		} else {
			// Epoch refresh: rebase the checkpointed hashers onto the
			// current epoch's seed block. SetBlock is a no-op within an
			// epoch; at a boundary it discards the checkpoints, and the
			// next evaluation re-sweeps the whole prefix against the fresh
			// block — amortized Θ(|T|/R) per iteration.
			epoch := it / p.env.epochR()
			ls.p1.SetBlock(p.env.seedLay.EpochOffset(hashing.SlotMP1, epoch))
			ls.p2.SetBlock(p.env.seedLay.EpochOffset(hashing.SlotMP2, epoch))
		}
		msg := ls.mp.Outgoing(ls.h, ls.T.Len())
		ls.mpOwn = msg
		if ls.mpOut == nil {
			ls.mpOut = make([]byte, 3*tau)
			ls.mpRecv = make([]byte, 3*tau)
		}
		packHashesInto(ls.mpOut, msg, tau)
	}
}

// packHashesInto serializes (HK, H1, H2) into 3τ bits, LSB-first per
// field, reusing the caller's buffer (len must be 3τ).
func packHashesInto(dst []byte, m meeting.Message, tau int) {
	k := 0
	for _, h := range [3]uint64{m.HK, m.H1, m.H2} {
		for j := 0; j < tau; j++ {
			dst[k] = byte(h >> uint(j) & 1)
			k++
		}
	}
}

// unpackHashes reverses packHashes.
func unpackHashes(bits []byte, tau int) meeting.Message {
	get := func(k int) uint64 {
		var h uint64
		for j := 0; j < tau; j++ {
			h |= uint64(bits[k*tau+j]&1) << uint(j)
		}
		return h
	}
	return meeting.Message{HK: get(0), H1: get(1), H2: get(2)}
}

// finishMeetingPoints runs one meeting-points step per link and then
// recomputes the party's own flag (Algorithm 1 lines 3–13).
func (p *party) finishMeetingPoints() {
	tau := p.env.params.HashBits
	for _, ls := range p.links {
		msg := unpackHashes(ls.mpRecv, tau)
		act := ls.mp.Step(ls.mpOwn, ls.T.Len(), msg)
		if act.TruncateTo >= 0 {
			ls.T.TruncateTo(act.TruncateTo)
		}
	}
	minChunk := p.minChunk()
	p.status = true
	for _, ls := range p.links {
		if ls.mp.Status == meeting.StatusMeetingPoints || ls.T.Len() > minChunk {
			p.status = false
			break
		}
	}
	p.flagAgg = p.status
}

func (p *party) minChunk() int {
	min := -1
	for _, ls := range p.links {
		if min < 0 || ls.T.Len() < min {
			min = ls.T.Len()
		}
	}
	if min < 0 {
		min = 0
	}
	return min
}

// planRewinds makes this round's rewind decisions once (Algorithm 1 lines
// 25–32): send a rewind on every link that is ahead of the party's
// current minimum, outside meeting-points recovery, at most once per
// iteration per link. minChunk is recomputed from the live transcript
// lengths so the rewind wave of Claim 4.7 propagates one hop per round.
func (p *party) planRewinds(round int) {
	if p.rewindRound == round || p.env.params.DisableRewind {
		return
	}
	p.rewindRound = round
	minChunk := p.minChunk()
	for _, ls := range p.links {
		if ls.mp.Status == meeting.StatusMeetingPoints || ls.alreadyRewound {
			continue
		}
		if ls.T.Len() > minChunk {
			ls.T.TruncateTo(ls.T.Len() - 1)
			ls.alreadyRewound = true
			p.rewindPlan[ls.port] = true
		}
	}
}
