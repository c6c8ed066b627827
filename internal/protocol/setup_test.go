package protocol

import (
	"encoding/binary"
	"fmt"
	"hash"
	"hash/fnv"
	"math/rand"
	"runtime"
	"testing"

	"mpic/internal/bitstring"
	"mpic/internal/channel"
	"mpic/internal/graph"
)

// setupDigest folds everything the coding schemes read from a protocol's
// set-up into one FNV-1a digest: every round's transmissions, every chunk
// of a 5m-bit chunking (the padding chunk included) with its slots, Locate
// for every directed link and sequence number (one past each end too),
// and the reference run's outputs.
func setupDigest(p Protocol) string {
	h := fnv.New64a()
	word := func(xs ...int) {
		var buf [8]byte
		for _, x := range xs {
			binary.LittleEndian.PutUint64(buf[:], uint64(x))
			h.Write(buf[:])
		}
	}
	g, s := p.Graph(), p.Schedule()
	word(s.Rounds(), s.TotalBits())
	for r := 0; r < s.Rounds(); r++ {
		word(len(s.At(r)))
		for _, tx := range s.At(r) {
			word(int(tx.From), int(tx.To))
		}
	}
	ch := NewChunking(p, 5*g.M())
	word(ch.NumChunks(), ch.MaxChunkRounds, ch.MaxSlotsPerLink)
	for i := 1; i <= ch.NumChunks()+1; i++ {
		spec := ch.Spec(i)
		word(spec.Index, spec.StartRound, spec.EndRound, spec.Bits, len(spec.LinkSlots))
		for e, slots := range spec.LinkSlots {
			word(e, len(slots))
			for _, sl := range slots {
				tx := sl.Tx(g)
				word(int(sl.RelRound), int(tx.From), int(tx.To), int(sl.Seq))
			}
		}
	}
	for _, e := range g.Edges() {
		for _, l := range []channel.Link{{From: e.U, To: e.V}, {From: e.V, To: e.U}} {
			for seq := -1; seq <= s.CountOn(l); seq++ {
				loc, ok := ch.Locate(l, seq)
				word(seq, loc.Chunk, loc.Pos)
				if ok {
					word(1)
				}
			}
		}
	}
	for _, out := range RunReference(p).Outputs {
		word(len(out))
		h.Write(out)
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

// TestProtocolSetupPinned pins the schedule, chunking, Locate table and
// reference outputs of each built-in workload, so a faster set-up must
// reproduce them bit for bit. The Random rows use bench/'s
// scenario-lockstep shape (the registry's random 12-party topology, 150
// rounds at density 1/2, 4-byte default inputs).
func TestProtocolSetupPinned(t *testing.T) {
	lockstep := func(seed int64) Protocol {
		g, err := graph.ByName("random", 12)
		if err != nil {
			t.Fatal(err)
		}
		return NewRandom(g, 150, 0.5, seed, DefaultInputs(g.N(), 4, seed))
	}
	line, err := NewPipelinedLine(6, 4, 5, DefaultInputs(6, 4, 1))
	if err != nil {
		t.Fatal(err)
	}
	ring, err := NewTokenRing(7, 4, DefaultInputs(7, 4, 2))
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name string
		p    Protocol
		want string
	}{
		{"random/seed1", lockstep(1), "a9411bf093934c98"},
		{"random/seed2", lockstep(2), "c45a54801e76c693"},
		{"random/seed3", lockstep(3), "9752d76793435ea8"},
		{"pipelined-line", line, "d6c6d0cac3586ad0"},
		{"token-ring", ring, "347c6779c37575b1"},
		{"tree-sum", NewTreeSum(graph.RandomConnected(9, 4, rand.New(rand.NewSource(5))), 2, 6, DefaultInputs(9, 4, 3)), "37c20e4d39a6ef81"},
		{"phase-king", NewPhaseKing(5, 5, DefaultInputs(5, 4, 4)), "71ed03d205ee7b48"},
		{"fully-utilized", NewFullyUtilized(NewRandom(graph.Ring(6), 40, 0.3, 4, DefaultInputs(6, 4, 4))), "0b0c292da70aa0b7"},
	}
	for _, c := range cases {
		if got := setupDigest(c.p); got != c.want {
			t.Errorf("%s: set-up digest %s, want %s", c.name, got, c.want)
		}
	}
}

// TestRandomSendBitFormula checks Random's content bits against the
// formula they were first defined by — an FNV-1a PRF of (input digest,
// receiver, seq), computed with hash/fnv, XOR the last bit observed on the
// reverse link — at every scheduled transmission, so the inlined FNV-1a
// stays the same function. The views hold arbitrary symbols (bits and
// silence), so the chained observation varies.
func TestRandomSendBitFormula(t *testing.T) {
	fnvWords := func(h hash.Hash64, words ...uint64) {
		var buf [8]byte
		for _, w := range words {
			binary.LittleEndian.PutUint64(buf[:], w)
			h.Write(buf[:])
		}
	}
	formula := func(p *Random, v View, r int, tx Transmission, seq int) byte {
		in := fnv.New64a()
		in.Write(v.Input())
		h := fnv.New64a()
		fnvWords(h, in.Sum64(), uint64(tx.To), uint64(seq))
		return byte(h.Sum64()&1) ^ lastObservedBit(v, p.sched, tx.Link().Reverse(), r)
	}
	rng := rand.New(rand.NewSource(1))
	graphs := []*graph.Graph{graph.Line(4), graph.Ring(5), graph.Clique(5), graph.RandomConnected(10, 6, rand.New(rand.NewSource(3)))}
	checked := 0
	for gi, g := range graphs {
		for seed := int64(1); seed <= 3; seed++ {
			for _, density := range []float64{0.05, 0.5, 1} {
				p := NewRandom(g, 60, density, seed, DefaultInputs(g.N(), 1+gi, seed))
				views := make([]*MapView, g.N())
				for i := range views {
					views[i] = NewMapView(g, graph.Node(i), p.Input(graph.Node(i)))
				}
				seq := map[channel.Link]int{}
				for r := 0; r < p.Schedule().Rounds(); r++ {
					for _, tx := range p.Schedule().At(r) {
						v := views[tx.From]
						if got, want := p.SendBit(v, r, tx, seq[tx.Link()]), formula(p, v, r, tx, seq[tx.Link()]); got != want {
							t.Fatalf("graph %d density %g seed %d: SendBit(r=%d, %v, seq %d) = %d, want %d", gi, density, seed, r, tx, seq[tx.Link()], got, want)
						}
						checked++
					}
					for _, tx := range p.Schedule().At(r) {
						sym := bitstring.Symbol(rng.Intn(3))
						views[tx.From].Record(tx.Link(), sym)
						views[tx.To].Record(tx.Link(), sym)
						seq[tx.Link()]++
					}
				}
			}
		}
	}
	if checked == 0 {
		t.Fatal("no transmission checked")
	}
}

// TestChunkingSlotBytes bounds NewChunking's heap by its per-transmission
// records: a 12-byte Slot in the slot slab plus the 8-byte location
// behind Locate. A long schedule on a small ring packed into one chunk
// leaves only O(m) other records, which the slack (a few pages of
// size-class rounding) covers. At 32-byte slots that held both endpoints
// as ints the same chunking took 40 B per transmission, and this failed.
func TestChunkingSlotBytes(t *testing.T) {
	g := graph.Ring(4)
	p := NewRandom(g, 20000, 0.5, 3, nil)
	total := p.Schedule().TotalBits()
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	ch := NewChunking(p, total)
	runtime.ReadMemStats(&after)
	if ch.NumChunks() != 1 {
		t.Fatalf("%d chunks, want 1", ch.NumChunks())
	}
	const slotBytes, locBytes, slack = 12, 8, 32 << 10
	got := after.TotalAlloc - before.TotalAlloc
	if want := uint64((slotBytes+locBytes)*total + slack); got > want {
		t.Fatalf("NewChunking allocated %d B for %d transmissions (%.1f B each), want at most %d", got, total, float64(got)/float64(total), want)
	}
	runtime.KeepAlive(ch)
}

// BenchmarkProtocolSetup measures the per-run protocol set-up of the
// default library call in bench/'s scenario-lockstep shape: the Random
// workload at density 1/2 for 150 rounds on the registry's random 12-party
// topology, its chunking at Algorithm A's 5K = 5m budget, and its
// noiseless reference run. The seed cycles as in BenchmarkRunLockstep.
func BenchmarkProtocolSetup(b *testing.B) {
	g, err := graph.ByName("random", 12)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		seed := int64(i%64 + 1)
		p := NewRandom(g, 150, 0.5, seed, DefaultInputs(g.N(), 4, seed))
		NewChunking(p, 5*g.M())
		RunReference(p)
	}
}
