package core

import (
	"mpic/internal/bitstring"
	"mpic/internal/channel"
	"mpic/internal/graph"
	"mpic/internal/protocol"
)

// flagBit encodes continue=1 / stop=0.
func flagBit(b bool) bitstring.Symbol {
	if b {
		return bitstring.Sym1
	}
	return bitstring.Sym0
}

// flagSend implements the party's transmissions in Algorithm 3: the
// upward convergecast of aggregated flags followed by the downward
// broadcast of the network verdict. All rounds are fixed by the node's
// level in the BFS tree.
func (p *party) flagSend(rel int, to graph.Node) bitstring.Symbol {
	t := p.env.tree
	d := t.Depth
	lvl := t.Level[p.id]
	if p.id != t.Root && to == t.Parent[p.id] && rel == d-lvl {
		return flagBit(p.flagAgg)
	}
	if rel == (d-1)+(lvl-1) && p.isChild(to) {
		if p.id == t.Root {
			// The root's verdict is the global AND (line 8 of
			// Algorithm 3: own status ∧ all children's flags).
			p.netCorrect = p.flagAgg
		}
		return flagBit(p.netCorrect)
	}
	return bitstring.Silence
}

// isChild reports whether v is one of p's children in the spanning tree.
func (p *party) isChild(v graph.Node) bool {
	return v != p.id && p.env.tree.Parent[v] == p.id
}

// flagDeliver folds received flags at exactly the rounds the schedule
// expects them; symbols at other rounds (insertions) are ignored, and a
// missing flag (deletion) reads as "stop" — the conservative default.
func (p *party) flagDeliver(rel int, from graph.Node, sym bitstring.Symbol) {
	t := p.env.tree
	d := t.Depth
	lvl := t.Level[p.id]
	if p.isChild(from) && rel == d-lvl-1 {
		p.flagAgg = p.flagAgg && sym == bitstring.Sym1
		return
	}
	if p.id != t.Root && from == t.Parent[p.id] && rel == d+lvl-3 {
		p.netCorrect = sym == bitstring.Sym1 && p.status
	}
}

// simSend handles the simulation phase: the ⊥ round (rel 0), then the
// chunk's scheduled transmissions.
func (p *party) simSend(rel int, ls *linkState) bitstring.Symbol {
	if rel == 0 {
		if !p.netCorrect {
			return bitstring.Sym1 // ⊥: not participating this iteration
		}
		return bitstring.Silence
	}
	if ls.simChunk == 0 {
		return bitstring.Silence
	}
	idx := ls.slotAt(rel-1, p.id)
	if idx < 0 {
		return bitstring.Silence
	}
	bit := p.contentBit(ls, idx)
	ls.pending[idx] = bitstring.SymbolFromBit(bit)
	return ls.pending[idx]
}

// contentBit computes the bit for one outgoing slot: the underlying
// protocol's next message given this party's current (believed) view, or
// zero inside dummy padding chunks.
func (p *party) contentBit(ls *linkState, idx int) byte {
	if p.env.chunking.IsDummy(ls.simChunk) {
		return 0
	}
	slot := ls.slots[idx]
	r := ls.spec.StartRound + slot.RelRound
	return p.env.proto.SendBit(codedView{p: p}, r, slot.Tx, slot.Seq) & 1
}

// simDeliver records incoming simulation symbols into the pending chunk
// buffer; symbols on unscheduled slots are ignored (Section 3.2:
// "insertions and deletions at other rounds are ignored").
func (p *party) simDeliver(rel int, ls *linkState, sym bitstring.Symbol) {
	if rel == 0 {
		if sym != bitstring.Silence {
			ls.skip = true
		}
		return
	}
	if ls.simChunk == 0 {
		return
	}
	idx := ls.slotAt(rel-1, ls.peer)
	if idx >= 0 {
		ls.pending[idx] = sym
	}
}

// slotAt returns the index into ls.slots of the transmission from `from`
// at relative round rel of the chunk being simulated, or -1 if none is
// scheduled. A simulation phase queries rounds in order, so the cursor —
// the first slot not before the last queried round — only moves forward:
// O(1) amortized per query.
func (ls *linkState) slotAt(rel int, from graph.Node) int {
	for ls.cursor < len(ls.slots) && ls.slots[ls.cursor].RelRound < rel {
		ls.cursor++
	}
	idx := -1
	for i := ls.cursor; i < len(ls.slots) && ls.slots[i].RelRound == rel; i++ {
		if ls.slots[i].Tx.From == from {
			idx = i
		}
	}
	return idx
}

// beginSimulation sets up per-link chunk state once the ⊥ round has been
// observed: the party simulates chunk |T_{u,v}|+1 with every neighbor
// that did not opt out (Algorithm 1 line 17).
func (p *party) beginSimulation() {
	if !p.netCorrect {
		return
	}
	for _, ls := range p.links {
		if ls.skip {
			continue
		}
		ls.simChunk = ls.T.Len() + 1
		ls.spec = p.env.chunking.Spec(ls.simChunk)
		ls.slots = ls.spec.LinkSlots[ls.eid]
		ls.cursor = 0
		ls.pending = make([]bitstring.Symbol, len(ls.slots))
		for i := range ls.pending {
			ls.pending[i] = bitstring.Silence
		}
	}
}

// finishSimulation commits the pending buffers as new transcript chunks.
func (p *party) finishSimulation() {
	for _, ls := range p.links {
		if ls.simChunk == 0 {
			continue
		}
		ls.T.Append(ChunkRecord{Index: ls.simChunk, Syms: ls.pending})
		ls.simChunk = 0
		ls.spec = nil
		ls.slots = nil
		ls.pending = nil
	}
}

// finishExchange decodes the received seed codewords and instantiates the
// per-link seed streams (Algorithm 5). A link whose codeword cannot be
// decoded is marked broken: its endpoints will disagree on every hash —
// the E \ E' case of Section 5.
func (p *party) finishExchange() {
	for _, ls := range p.links {
		if ls.exchSend != nil {
			continue // sender already holds its source
		}
		for len(ls.exchRecv) < p.env.codec.CodewordBits() {
			ls.exchRecv = append(ls.exchRecv, 0)
			ls.exchErased = append(ls.exchErased, true)
		}
		seed, err := p.env.codec.DecodeBits(ls.exchRecv, ls.exchErased)
		if err != nil {
			ls.seedBroken = true
			// Deterministic garbage: fold whatever arrived. The link's
			// hashes will disagree with the peer's, which the scheme must
			// survive (it costs the adversary Θ(|Π|) errors to get here).
			var a, b uint64
			for i, bit := range ls.exchRecv {
				if bit != 0 {
					if i%2 == 0 {
						a ^= 1 << uint(i%64)
					} else {
						b ^= 1 << uint(i%64)
					}
				}
			}
			p.env.bindSource(ls, p.env.newSource(a^0xdead, b^0xbeef))
			continue
		}
		a, b := seedToWords(seed)
		p.env.bindSource(ls, p.env.newSource(a, b))
	}
}

// codedView adapts a party's believed transcripts to protocol.View so the
// underlying protocol's message functions can be re-evaluated during
// simulation (including re-simulation after rewinds).
type codedView struct {
	p *party
}

var _ protocol.View = codedView{}

// Self implements protocol.View.
func (v codedView) Self() graph.Node { return v.p.id }

// Input implements protocol.View.
func (v codedView) Input() []byte { return v.p.env.proto.Input(v.p.id) }

// Observed implements protocol.View.
func (v codedView) Observed(l channel.Link, seq int) bitstring.Symbol {
	var peer graph.Node
	switch {
	case l.From == v.p.id:
		peer = l.To
	case l.To == v.p.id:
		peer = l.From
	default:
		return bitstring.Silence
	}
	ls := v.p.link(peer)
	if ls == nil {
		return bitstring.Silence
	}
	loc, ok := v.p.env.chunking.Locate(l, seq)
	if !ok {
		return bitstring.Silence
	}
	if loc.Chunk <= ls.T.Len() {
		rec := ls.T.Chunk(loc.Chunk - 1)
		if loc.Pos < len(rec.Syms) {
			return rec.Syms[loc.Pos]
		}
		return bitstring.Silence
	}
	if ls.simChunk == loc.Chunk && loc.Pos < len(ls.pending) {
		return ls.pending[loc.Pos]
	}
	return bitstring.Silence
}
