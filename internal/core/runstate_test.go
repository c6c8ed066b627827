package core

import (
	"bytes"
	"math/rand"
	"runtime"
	"testing"
	"weak"

	"mpic/internal/bitstring"
	"mpic/internal/ecc"
	"mpic/internal/graph"
	"mpic/internal/trace"
)

// TestArenaDropsFinishedRun pins that a run's transcripts die with the
// run even when its prefix-hash stores live on in an arena: a retired
// store keeps only its buffers, not the transcript it hashed, its
// watermark or its seed source.
func TestArenaDropsFinishedRun(t *testing.T) {
	g := graph.Ring(5)
	for _, s := range []Scheme{Alg1, AlgA} {
		arena := NewArena()
		var refs []weak.Pointer[bitstring.BitVec]
		capture := inspectFunc(func(it int, parties []*party) {
			if it > 0 {
				return
			}
			for _, p := range parties {
				for _, ls := range p.links {
					refs = append(refs, weak.Make(ls.T.Bits()))
				}
			}
		})
		proto := quickProto(g, 3)
		sched := weak.Make(proto.Schedule())
		if _, err := Run(Options{Protocol: proto, Params: quickParams(s, g, 3), Arena: arena, Observers: []Observer{capture}}); err != nil {
			t.Fatal(err)
		}
		proto = nil
		if len(refs) != 2*g.M() {
			t.Fatalf("%v: captured %d transcripts, want %d", s, len(refs), 2*g.M())
		}
		runtime.GC()
		for i, w := range refs {
			if w.Value() != nil {
				t.Errorf("%v: transcript %d still reachable after the run", s, i)
			}
		}
		if n := len(arena.free); n != 4*g.M() {
			t.Errorf("%v: arena holds %d stores, want %d", s, n, 4*g.M())
		}
		if n := len(arena.chunkings); n != 1 {
			t.Errorf("%v: arena holds %d chunkings, want 1", s, n)
		}
		if sched.Value() != nil {
			t.Errorf("%v: the run's schedule still reachable after the run", s)
		}
	}
}

// TestOracleObserveAllocs pins that the oracle's per-iteration snapshot
// reuses its edge-state buffer: observe allocates nothing once warm.
func TestOracleObserveAllocs(t *testing.T) {
	g := graph.Ring(5)
	var last []*party
	keep := inspectFunc(func(_ int, parties []*party) { last = parties })
	if _, err := Run(Options{Protocol: quickProto(g, 2), Params: quickParams(AlgA, g, 2), Observers: []Observer{keep}}); err != nil {
		t.Fatal(err)
	}
	o := newOracle(last[0].env, last, &trace.Metrics{})
	o.observe(0)
	it := 1
	allocs := testing.AllocsPerRun(100, func() {
		o.observe(it)
		it++
	})
	if allocs != 0 {
		t.Fatalf("oracle.observe allocates %.1f times per call, want 0", allocs)
	}
}

// TestSimulationPhaseAllocs pins that a steady-state simulation phase
// allocates nothing: each link's pending buffer is cut once at
// construction, Chunking.Slots hands out the padding chunk's slots
// without copying its spec, and the transcript appends within its hint.
// It drives one party of a finished run through whole phases — the ⊥
// round, every slot sent and received, the commit — on a real chunk and
// on the padding chunk, rolling the transcripts back after each phase.
// Before the per-link buffers, every phase allocated one buffer per link
// (and a spec copy per link on padding chunks), and this failed.
func TestSimulationPhaseAllocs(t *testing.T) {
	g := graph.Ring(5)
	var last []*party
	keep := inspectFunc(func(_ int, parties []*party) { last = parties })
	if _, err := Run(Options{Protocol: quickProto(g, 2), Params: quickParams(Alg1, g, 2), Observers: []Observer{keep}}); err != nil {
		t.Fatal(err)
	}
	p := last[0]
	for _, real := range []bool{true, false} {
		lens := make([]int, len(p.links))
		for i, ls := range p.links {
			lens[i] = p.env.numChunks
			if real {
				lens[i] = p.env.numChunks / 2
			}
			ls.T.TruncateTo(lens[i])
			for ls.T.Len() < lens[i] {
				_, slots := p.env.chunking.Slots(ls.T.Len()+1, ls.eid)
				ls.T.Append(make([]bitstring.Symbol, len(slots)))
			}
		}
		phase := func() {
			p.netCorrect = true
			for _, ls := range p.links {
				ls.skip = false
			}
			p.beginSimulation()
			for rel := 0; rel < p.env.lay.simRounds; rel++ {
				for _, ls := range p.links {
					p.simDeliver(rel, ls, p.simSend(rel, ls))
				}
			}
			p.finishSimulation()
			for i, ls := range p.links {
				ls.T.TruncateTo(lens[i])
			}
		}
		phase()
		if allocs := testing.AllocsPerRun(50, phase); allocs != 0 {
			t.Errorf("real chunk %v: a simulation phase allocates %.1f times, want 0", real, allocs)
		}
		if p.env.chunking.IsDummy(lens[0]+1) == real {
			t.Fatalf("real chunk %v: simulated chunk %d is padding: %v", real, lens[0]+1, !real)
		}
	}
}

// TestTranscriptAppendWithinHintAllocs pins the transcript presizing:
// appends within the chunk and bit hints allocate nothing, and a
// transcript that outgrows its hint still appends the same encoding.
func TestTranscriptAppendWithinHintAllocs(t *testing.T) {
	const chunks = 12
	syms := []bitstring.Symbol{bitstring.Sym1, bitstring.Silence, bitstring.Sym0}
	bits := chunks * (chunkIndexBits + 2*len(syms))
	tr := NewTranscript(chunks, bits)
	allocs := testing.AllocsPerRun(100, func() {
		tr.TruncateTo(0)
		for i := 1; i <= chunks; i++ {
			tr.Append(syms)
		}
	})
	if allocs != 0 {
		t.Fatalf("Append within the hint allocates %.1f times per pass, want 0", allocs)
	}
	small, grown := NewTranscript(2, 64), NewTranscript(0, 0)
	for i := 1; i <= 3*chunks; i++ {
		small.Append(syms)
		grown.Append(syms)
	}
	if !small.Equal(grown) || !small.Bits().Equal(grown.Bits()) || small.PrefixBits(chunks) != grown.PrefixBits(chunks) {
		t.Fatal("a transcript grown past its hint differs from an unsized one")
	}
}

// TestExchangeSeedsFreshSource pins the reseeded exchange generator
// directly: every sender's codeword is the encoding of 128 Intn(2) draws
// from a fresh generator at its party's key, the party's sender links
// drawing in neighbor order, and every receiver ends the exchange with
// exactly one codeword of room.
func TestExchangeSeedsFreshSource(t *testing.T) {
	g, err := graph.ByName("random", 12)
	if err != nil {
		t.Fatal(err)
	}
	const key = 9
	params := quickParams(AlgA, g, key)
	codec, err := ecc.NewBitCodec(seedBits, params.RSBlockN, params.RSBlockK)
	if err != nil {
		t.Fatal(err)
	}
	cw := codec.CodewordBits()
	checked, multi := 0, false
	check := inspectFunc(func(it int, parties []*party) {
		if it > 0 {
			return
		}
		for _, p := range parties {
			rng := rand.New(rand.NewSource(key ^ (0x5851f42d4c957f2d * int64(p.id+1))))
			senders := 0
			for _, ls := range p.links {
				if p.id > ls.peer {
					if ls.exchSend != nil || len(ls.exchRecv) != cw || cap(ls.exchRecv) != cw || len(ls.exchErased) != cw || cap(ls.exchErased) != cw {
						t.Errorf("party %d link %d: receiver holds exchSend=%v, recv len/cap %d/%d, erased len/cap %d/%d, want none and %d", p.id, ls.peer, ls.exchSend != nil, len(ls.exchRecv), cap(ls.exchRecv), len(ls.exchErased), cap(ls.exchErased), cw)
					}
					continue
				}
				seed := make([]byte, seedBits)
				for i := range seed {
					seed[i] = byte(rng.Intn(2))
				}
				want, err := codec.EncodeBits(seed)
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(ls.exchSend, want) {
					t.Errorf("party %d link %d: exchange codeword differs from a fresh generator's", p.id, ls.peer)
				}
				senders++
				checked++
			}
			multi = multi || senders > 1
		}
	})
	if _, err := Run(Options{Protocol: quickProto(g, key), Params: params, Observers: []Observer{check}}); err != nil {
		t.Fatal(err)
	}
	if checked != g.M() || !multi {
		t.Fatalf("checked %d sender links (want %d), a party with several senders: %v", checked, g.M(), multi)
	}
}
