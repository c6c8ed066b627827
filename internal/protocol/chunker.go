package protocol

import (
	"mpic/internal/channel"
	"mpic/internal/graph"
)

// Slot is one transmission position on an undirected link within a chunk:
// the unit of transcript storage. Both endpoints enumerate the slots of a
// link in identical (schedule) order, so their transcripts are comparable
// position by position.
type Slot struct {
	// RelRound is the round offset from the chunk's start.
	RelRound int
	// Tx is the directed transmission occupying the slot.
	Tx Transmission
	// Seq is the per-directed-link sequence number of the transmission.
	Seq int
}

// ChunkSpec describes one chunk: a maximal run of consecutive rounds whose
// total communication does not exceed the chunk budget (Section 3.2).
type ChunkSpec struct {
	// Index is the 1-based chunk number (chunk numbers start at 1 so a
	// transcript containing any chunk differs from the empty string even
	// after zero-padding; see footnote 11).
	Index int
	// StartRound and EndRound delimit the Π rounds covered: [Start, End).
	StartRound, EndRound int
	// Bits is the total communication in the chunk.
	Bits int
	// LinkSlots lists each undirected link's slots in schedule order,
	// indexed by the link's edge ID (graph.EdgeIndex); a link silent in
	// the chunk has none.
	LinkSlots [][]Slot
}

// Rounds returns the number of Π rounds the chunk spans.
func (c *ChunkSpec) Rounds() int { return c.EndRound - c.StartRound }

// SeqLoc locates a transmission inside the chunked transcript space.
type SeqLoc struct {
	// Chunk is the 1-based chunk index.
	Chunk int
	// Pos is the slot position within the chunk's LinkSlots entry for the
	// transmission's undirected link.
	Pos int
}

// Chunking partitions a schedule into chunks of at most chunkBits bits,
// greedily packing whole rounds (the paper packs rounds until the next
// round would overflow the 5K budget).
type Chunking struct {
	// Sched is the underlying schedule.
	Sched *Schedule
	// ChunkBits is the per-chunk communication budget (the paper's 5K).
	ChunkBits int
	// Specs holds the real chunks; Specs[i] has Index i+1.
	Specs []*ChunkSpec
	// MaxChunkRounds is the longest chunk's round span, which fixes the
	// simulation phase length.
	MaxChunkRounds int
	// MaxSlotsPerLink is the largest number of slots any link has in any
	// chunk (including the dummy chunk), used to size hash inputs.
	MaxSlotsPerLink int

	g     *graph.Graph
	dummy *ChunkSpec
	locs  [][]SeqLoc // by graph.LinkIndex: each transmission's location, by seq
}

// NewChunking chunks the schedule of p into chunks of at most chunkBits
// bits each. chunkBits must be at least the largest single round's
// communication or that round becomes a chunk by itself. The schedule
// must use only links of p's graph (Schedule.Validate).
//
// Each chunk holds one slot list per edge, so the chunking takes
// O(m·chunks + |Π|) memory — O(m + |Π|) whenever chunkBits is at least
// twice the busiest round's communication, as the paper's 5K ≥ 5m is.
func NewChunking(p Protocol, chunkBits int) *Chunking {
	sched := p.Schedule()
	g := p.Graph()
	m := g.M()
	c := &Chunking{
		Sched:     sched,
		ChunkBits: chunkBits,
		g:         g,
		locs:      make([][]SeqLoc, 2*m),
	}
	// Every transmission's link index, in schedule order, and each link's
	// transmission count, which sizes its slice of one shared locs slab.
	lis := make([]int, 0, sched.TotalBits())
	perLink := make([]int, 2*m)
	for r := 0; r < sched.Rounds(); r++ {
		for _, tx := range sched.At(r) {
			li := g.LinkIndex(tx.From, tx.To)
			lis = append(lis, li)
			perLink[li]++
		}
	}
	slab := make([]SeqLoc, len(lis))
	for li, n := range perLink {
		c.locs[li] = slab[:0:n]
		slab = slab[n:]
	}
	perEdge := make([]int, m)
	for start, next := 0, 0; start < sched.Rounds(); {
		// Pack whole rounds greedily; a chunk always takes its first round.
		end, bits := start+1, len(sched.At(start))
		for end < sched.Rounds() && bits+len(sched.At(end)) <= chunkBits {
			bits += len(sched.At(end))
			end++
		}
		c.addChunk(start, end, lis[next:next+bits], perEdge)
		start, next = end, next+bits
	}

	// Dummy padding chunk (Section 3.2): one round in which every link
	// carries one bit in each direction, content fixed to zero. Used for
	// chunk indices past |Π| so the simulation can keep making progress
	// while stragglers catch up.
	dummy := &ChunkSpec{StartRound: 0, EndRound: 1, Bits: 2 * m, LinkSlots: make([][]Slot, m)}
	for _, e := range g.Edges() {
		dummy.LinkSlots[g.EdgeIndex(e.U, e.V)] = []Slot{
			{RelRound: 0, Tx: Transmission{From: e.U, To: e.V}},
			{RelRound: 0, Tx: Transmission{From: e.V, To: e.U}},
		}
	}
	c.dummy = dummy
	if c.MaxSlotsPerLink < 2 {
		c.MaxSlotsPerLink = 2
	}
	if c.MaxChunkRounds < 1 {
		c.MaxChunkRounds = 1
	}
	return c
}

// addChunk appends the chunk of rounds [start, end), whose transmissions
// have link indices lis; perEdge is zeroed scratch of length m, returned
// zeroed.
func (c *Chunking) addChunk(start, end int, lis, perEdge []int) {
	spec := &ChunkSpec{
		Index:      len(c.Specs) + 1,
		StartRound: start,
		EndRound:   end,
		Bits:       len(lis),
		LinkSlots:  make([][]Slot, len(perEdge)),
	}
	for _, li := range lis {
		perEdge[li/2]++
	}
	slab := make([]Slot, len(lis))
	for e, n := range perEdge {
		if n > 0 {
			spec.LinkSlots[e] = slab[:0:n]
			slab = slab[n:]
			perEdge[e] = 0
		}
		if n > c.MaxSlotsPerLink {
			c.MaxSlotsPerLink = n
		}
	}
	k := 0
	for r := start; r < end; r++ {
		for _, tx := range c.Sched.At(r) {
			li := lis[k]
			k++
			e := li / 2
			seq := len(c.locs[li])
			c.locs[li] = append(c.locs[li], SeqLoc{Chunk: spec.Index, Pos: len(spec.LinkSlots[e])})
			spec.LinkSlots[e] = append(spec.LinkSlots[e], Slot{RelRound: r - start, Tx: tx, Seq: seq})
		}
	}
	if spec.Rounds() > c.MaxChunkRounds {
		c.MaxChunkRounds = spec.Rounds()
	}
	c.Specs = append(c.Specs, spec)
}

// NumChunks returns |Π| in chunks (the real chunks, excluding padding).
func (c *Chunking) NumChunks() int { return len(c.Specs) }

// Spec returns the chunk spec for 1-based index i; indices past the real
// protocol return the dummy padding chunk (with Index set accordingly).
func (c *Chunking) Spec(i int) *ChunkSpec {
	if i >= 1 && i <= len(c.Specs) {
		return c.Specs[i-1]
	}
	d := *c.dummy
	d.Index = i
	return &d
}

// IsDummy reports whether chunk index i is padding.
func (c *Chunking) IsDummy(i int) bool { return i < 1 || i > len(c.Specs) }

// Locate maps a directed transmission (link, seq) to its chunk and slot
// position; ok is false if l is not a link of the graph or seq is out of
// range.
func (c *Chunking) Locate(l channel.Link, seq int) (SeqLoc, bool) {
	li := c.g.LinkIndex(l.From, l.To)
	if li < 0 || seq < 0 || seq >= len(c.locs[li]) {
		return SeqLoc{}, false
	}
	return c.locs[li][seq], true
}
