package core

import (
	"runtime"
	"testing"

	"mpic/internal/adversary"
	"mpic/internal/bitstring"
	"mpic/internal/channel"
	"mpic/internal/graph"
	"mpic/internal/protocol"
)

// TestSlotCursor walks every link of every chunk, the dummy chunk
// included, through a whole simulation phase of MaxChunkRounds rounds the
// way Send and Deliver query it, and checks the cursor against a scan of
// the chunk's slots: past a short chunk's end it finds nothing.
func TestSlotCursor(t *testing.T) {
	g := graph.Ring(5)
	p := protocol.NewRandom(g, 40, 0.3, 4, nil)
	ch := protocol.NewChunking(p, 7)
	if ch.MaxChunkRounds < 2 {
		t.Fatalf("MaxChunkRounds = %d; the test needs chunks of different spans", ch.MaxChunkRounds)
	}
	scan := func(slots []protocol.Slot, rel int, from graph.Node) int {
		idx := -1
		for i, s := range slots {
			if int(s.RelRound) == rel && s.Tx(g).From == from {
				idx = i
			}
		}
		return idx
	}
	short := 0
	for i := 1; i <= ch.NumChunks()+1; i++ {
		spec := ch.Spec(i)
		if spec.Rounds() < ch.MaxChunkRounds {
			short++
		}
		for _, e := range g.Edges() {
			_, slots := ch.Slots(i, g.EdgeIndex(e.U, e.V))
			ls := &linkState{slots: slots}
			for rel := 0; rel < ch.MaxChunkRounds; rel++ {
				for _, tx := range []protocol.Transmission{{From: e.U, To: e.V}, {From: e.V, To: e.U}} {
					got := ls.slotAt(rel, int32(g.LinkIndex(tx.From, tx.To)))
					if want := scan(ls.slots, rel, tx.From); got != want {
						t.Fatalf("chunk %d link %v rel %d from %d: slotAt = %d, want %d", i, e, rel, tx.From, got, want)
					}
					if rel >= spec.Rounds() && got != -1 {
						t.Fatalf("chunk %d (%d rounds) link %v: slot %d at rel %d past the end", i, spec.Rounds(), e, got, rel)
					}
				}
			}
		}
	}
	if !ch.IsDummy(ch.NumChunks()+1) || short == 0 {
		t.Fatal("no short chunk exercised")
	}
}

// probeProtocol wraps a protocol whose every SendBit and Output first asks
// the view about links the party cannot observe; any non-Silence answer
// is counted.
type probeProtocol struct {
	protocol.Protocol
	probes int
	bad    []string
}

func (p *probeProtocol) probe(v protocol.View) {
	self := v.Self()
	n := graph.Node(p.Graph().N())
	nb := p.Graph().Neighbors(self)
	other := (self + 2) % n // not adjacent on a ring of 5
	links := []channel.Link{
		{From: self, To: self},
		{From: -1, To: self},
		{From: self, To: -1},
		{From: n, To: self},
		{From: self, To: n + 7},
		{From: other, To: (other + 1) % n},
		{From: self, To: other},
	}
	for _, l := range links {
		for _, seq := range []int{0, 1, 1 << 20} {
			p.probes++
			if s := v.Observed(l, seq); s != bitstring.Silence {
				p.bad = append(p.bad, l.String())
			}
		}
	}
	for _, w := range nb {
		for _, l := range []channel.Link{{From: self, To: w}, {From: w, To: self}} {
			for _, seq := range []int{-1, 1 << 20} {
				p.probes++
				if s := v.Observed(l, seq); s != bitstring.Silence {
					p.bad = append(p.bad, l.String())
				}
			}
		}
	}
}

func (p *probeProtocol) SendBit(v protocol.View, r int, tx protocol.Transmission, seq int) byte {
	p.probe(v)
	return p.Protocol.SendBit(v, r, tx, seq)
}

func (p *probeProtocol) Output(v protocol.View) []byte {
	p.probe(v)
	return p.Protocol.Output(v)
}

// TestObservedOutsideViewIsSilence asks both views — the coded run's
// codedView and the reference run's MapView — about non-incident links,
// nodes outside [0, n) and out-of-range sequence numbers.
func TestObservedOutsideViewIsSilence(t *testing.T) {
	g := graph.Ring(5)
	proto := &probeProtocol{Protocol: protocol.NewRandom(g, 30, 0.4, 9, nil)}
	protocol.RunReference(proto)
	if proto.probes == 0 || len(proto.bad) > 0 {
		t.Fatalf("MapView: %d probes, non-Silence on %v", proto.probes, proto.bad)
	}
	proto.probes = 0
	res, err := Run(Options{Protocol: proto, Params: quickParams(Alg1, g, 3), Adversary: adversary.None{}})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Success {
		t.Fatal("noiseless run failed")
	}
	if proto.probes == 0 || len(proto.bad) > 0 {
		t.Fatalf("codedView: %d probes, non-Silence on %v", proto.probes, proto.bad)
	}
}

// TestIndexMemoryLinear builds the tree-sum schedule on Line(2^16), its
// chunking and all its parties, and bounds the bytes allocated per
// transmission and per party: the per-link indices are O(n + m + |Π|),
// and any n×n table (2^32 entries) blows the bound. The parties' hash
// buffers are left unsized (seedHintWords 0): their pre-size is a
// per-link constant of its own, and leaving it out keeps the test to a
// few hundred MB.
func TestIndexMemoryLinear(t *testing.T) {
	if testing.Short() || raceEnabled {
		t.Skip("builds a 65536-party network")
	}
	const n = 1 << 16
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	g := graph.Line(n)
	proto := protocol.NewTreeSum(g, 1, 1, nil)
	e := testEnv(t, g)
	e.seedHintWords = 0
	e.chunking = protocol.NewChunking(proto, ParamsFor(Alg1, g).ChunkBits)
	parties := make([]*party, n)
	for i := range parties {
		parties[i] = newParty(e, graph.Node(i))
	}
	runtime.ReadMemStats(&after)
	bits := proto.Schedule().TotalBits()
	alloc := after.TotalAlloc - before.TotalAlloc
	limit := uint64(200*bits + 2048*n)
	t.Logf("n=%d |Π|=%d chunks=%d: %d MB allocated (limit %d MB)", n, bits, e.chunking.NumChunks(), alloc>>20, limit>>20)
	if alloc > limit {
		t.Fatalf("allocated %d bytes, limit %d", alloc, limit)
	}
	runtime.KeepAlive(parties)
}
