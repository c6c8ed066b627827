package protocol

import (
	"fmt"

	"mpic/internal/channel"
	"mpic/internal/graph"
)

// Slot is one transmission position on an undirected link within a chunk:
// the unit of transcript storage. Both endpoints enumerate the slots of a
// link in identical (schedule) order, so their transcripts are comparable
// position by position. A slot takes 12 bytes: its transmission is not
// stored but named by its directed link, which Tx turns back into
// endpoints.
type Slot struct {
	// RelRound is the round offset from the chunk's start.
	RelRound int32
	// Seq is the per-directed-link sequence number of the transmission.
	Seq int32
	// Link is the directed link carrying the transmission, by
	// graph.LinkIndex: 2·edge ID, plus one when the sender is the edge's
	// higher endpoint.
	Link int32
}

// Tx returns the directed transmission occupying the slot in graph g.
func (s Slot) Tx(g *graph.Graph) Transmission {
	e := g.Edge(int(s.Link / 2))
	if s.Link%2 == 1 {
		return Transmission{From: e.V, To: e.U}
	}
	return Transmission{From: e.U, To: e.V}
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
	// the chunk has none. The lists are views into the chunking's one
	// slot slab and must not be modified.
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
	locs  [][]seqLoc // by graph.LinkIndex: each transmission's location, by seq
}

// seqLoc is a SeqLoc stored in half the space.
type seqLoc struct{ chunk, pos int32 }

// NewChunking chunks the schedule of p into chunks of at most chunkBits
// bits each. chunkBits must be at least the largest single round's
// communication or that round becomes a chunk by itself. The schedule
// must use only links of p's graph (Schedule.Validate).
//
// Each chunk holds one slot list per edge, so the chunking takes
// O(m·chunks + |Π|) memory — O(m + |Π|) whenever chunkBits is at least
// twice the busiest round's communication, as the paper's 5K ≥ 5m is.
// The per-transmission part is 20 bytes: a 12-byte Slot in one slab and
// an 8-byte location for Locate.
func NewChunking(p Protocol, chunkBits int) *Chunking {
	sched := p.Schedule()
	g := p.Graph()
	m := g.M()
	c := &Chunking{
		Sched:     sched,
		ChunkBits: chunkBits,
		g:         g,
		locs:      make([][]seqLoc, 2*m),
	}
	// Pack whole rounds greedily; a chunk always takes its first round.
	// The first pass only counts the chunks, so the second fills specs of
	// one slab.
	pack := func(start int) (end, bits int) {
		end, bits = start+1, len(sched.At(start))
		for end < sched.Rounds() && bits+len(sched.At(end)) <= chunkBits {
			bits += len(sched.At(end))
			end++
		}
		return end, bits
	}
	n := 0
	for start := 0; start < sched.Rounds(); start, _ = pack(start) {
		n++
	}
	specs := make([]ChunkSpec, n)
	linkSlots := make([][]Slot, n*m)
	c.Specs = make([]*ChunkSpec, n)
	for i, start := 0, 0; i < n; i++ {
		end, bits := pack(start)
		specs[i] = ChunkSpec{
			Index:      i + 1,
			StartRound: start,
			EndRound:   end,
			Bits:       bits,
			LinkSlots:  linkSlots[i*m : (i+1)*m : (i+1)*m],
		}
		c.Specs[i] = &specs[i]
		c.MaxChunkRounds = max(c.MaxChunkRounds, end-start)
		start = end
	}

	// Each edge's slots, in schedule order, are its two directions'
	// transmissions merged by round (u→v before v→u within a round, as
	// the round is sorted), and each chunk's LinkSlots entry for the edge
	// is one run of that sequence: all slots share one slab.
	slots := make([]Slot, 0, sched.TotalBits())
	locSlab := make([]seqLoc, sched.TotalBits())
	for id := 0; id < m; id++ {
		e := g.Edge(id)
		fwd := sched.roundsOn(channel.Link{From: e.U, To: e.V})
		bwd := sched.roundsOn(channel.Link{From: e.V, To: e.U})
		c.locs[2*id], locSlab = locSlab[:len(fwd):len(fwd)], locSlab[len(fwd):]
		c.locs[2*id+1], locSlab = locSlab[:len(bwd):len(bwd)], locSlab[len(bwd):]
		ci, run := 0, len(slots)
		for i, j := 0, 0; i < len(fwd) || j < len(bwd); {
			var r int
			var slot Slot
			var loc *seqLoc
			if j == len(bwd) || i < len(fwd) && fwd[i] <= bwd[j] {
				r, loc = int(fwd[i]), &c.locs[2*id][i]
				slot = Slot{Seq: int32(i), Link: int32(2 * id)}
				i++
			} else {
				r, loc = int(bwd[j]), &c.locs[2*id+1][j]
				slot = Slot{Seq: int32(j), Link: int32(2*id + 1)}
				j++
			}
			if r >= specs[ci].EndRound {
				c.closeRun(&specs[ci], id, slots[run:])
				for r >= specs[ci].EndRound {
					ci++
				}
				run = len(slots)
			}
			slot.RelRound = int32(r - specs[ci].StartRound)
			*loc = seqLoc{chunk: int32(ci + 1), pos: int32(len(slots) - run)}
			slots = append(slots, slot)
		}
		if len(slots) > run {
			c.closeRun(&specs[ci], id, slots[run:])
		}
	}
	if len(slots) != sched.TotalBits() {
		panic(fmt.Sprintf("protocol: chunking a schedule using non-edges (%d of %d transmissions on edges)", len(slots), sched.TotalBits()))
	}

	// Dummy padding chunk (Section 3.2): one round in which every link
	// carries one bit in each direction, content fixed to zero. Used for
	// chunk indices past |Π| so the simulation can keep making progress
	// while stragglers catch up.
	dummy := &ChunkSpec{StartRound: 0, EndRound: 1, Bits: 2 * m, LinkSlots: make([][]Slot, m)}
	dslots := make([]Slot, 2*m)
	for id := 0; id < m; id++ {
		dslots[2*id] = Slot{Link: int32(2 * id)}
		dslots[2*id+1] = Slot{Link: int32(2*id + 1)}
		dummy.LinkSlots[id] = dslots[2*id : 2*id+2 : 2*id+2]
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

// closeRun hands edge id's slots in one chunk to that chunk's spec; an
// edge silent in the chunk keeps a nil entry.
func (c *Chunking) closeRun(spec *ChunkSpec, id int, run []Slot) {
	if len(run) == 0 {
		return
	}
	spec.LinkSlots[id] = run[:len(run):len(run)]
	c.MaxSlotsPerLink = max(c.MaxSlotsPerLink, len(run))
}

// NumChunks returns |Π| in chunks (the real chunks, excluding padding).
func (c *Chunking) NumChunks() int { return len(c.Specs) }

// Spec returns the chunk spec for 1-based index i; indices past the real
// protocol return a copy of the dummy padding chunk with Index set
// accordingly. The simulation reads chunks through Slots, which makes no
// copy.
func (c *Chunking) Spec(i int) *ChunkSpec {
	if i >= 1 && i <= len(c.Specs) {
		return c.Specs[i-1]
	}
	d := *c.dummy
	d.Index = i
	return &d
}

// Slots returns what simulating chunk i reads for edge id — the chunk's
// first round and the edge's slots in it — without building a spec: the
// same values as Spec(i).StartRound and Spec(i).LinkSlots[id], with no
// allocation for padding indices.
func (c *Chunking) Slots(i, id int) (startRound int, slots []Slot) {
	spec := c.dummy
	if !c.IsDummy(i) {
		spec = c.Specs[i-1]
	}
	return spec.StartRound, spec.LinkSlots[id]
}

// EdgeSlots returns the number of slots edge id has over all real
// chunks: its transmissions in both directions.
func (c *Chunking) EdgeSlots(id int) int { return len(c.locs[2*id]) + len(c.locs[2*id+1]) }

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
	loc := c.locs[li][seq]
	return SeqLoc{Chunk: int(loc.chunk), Pos: int(loc.pos)}, true
}
