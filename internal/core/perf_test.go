package core

import (
	"math/rand"
	"testing"

	"mpic/internal/adversary"
	"mpic/internal/bitstring"
	"mpic/internal/graph"
	"mpic/internal/hashing"
	"mpic/internal/meeting"
	"mpic/internal/protocol"
)

// testEnv builds the minimal env a party needs for the meeting-points hash
// path, mirroring Run's construction.
func testEnv(t *testing.T, g *graph.Graph) *env {
	t.Helper()
	// HashLegacy: these whitebox tests compare the hasher against the
	// per-iteration reference offsets; the epoch mode has its own env
	// (testEnvEpoch).
	p := Params{ChunkBits: 10, HashBits: 8, IterFactor: 4, CRSKey: 7, HashMode: HashLegacy}
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	e := &env{
		params: p,
		g:      g,
		crsK0:  uint64(p.CRSKey)*0x9e3779b97f4a7c15 + 0x853c49e6748fea9b,
		crsK1:  uint64(p.CRSKey)*0xda942042e4dd58b5 + 0xd1342543de82ef95,
	}
	// A chunking of a short protocol on g sizes each link's transcript
	// and pending buffer; the tests append chunks of their own.
	e.proto = protocol.NewRandom(g, 10, 0.3, 1, nil)
	e.chunking = protocol.NewChunking(e.proto, p.ChunkBits)
	maxChunkBits := chunkIndexBits + 2*5
	e.hash = hashing.NewInnerProductHash(p.HashBits, 64*maxChunkBits)
	e.seedLay = hashing.NewSeedLayout(e.hash)
	e.seedHintWords = (40*maxChunkBits + 63) / 64
	return e
}

// TestPrepareIterationSteadyStateAllocs pins the zero-allocation contract
// of the per-iteration consistency-check setup: once the scratch buffers
// and seed caches are warm, preparing further iterations (including the
// SetBlock invalidation between them) allocates nothing.
func TestPrepareIterationSteadyStateAllocs(t *testing.T) {
	g := graph.Line(3)
	e := testEnv(t, g)
	p := newParty(e, 1)
	// Give the transcripts some length so prefix hashing sweeps real words.
	for _, ls := range p.links {
		for i := 1; i <= 30; i++ {
			ls.T.Append([]bitstring.Symbol{bitstring.Sym1, bitstring.Sym0, bitstring.Silence})
		}
	}
	p.prepareIteration(0)
	p.prepareIteration(1)
	allocs := testing.AllocsPerRun(100, func() {
		p.prepareIteration(2)
		p.prepareIteration(3)
	})
	if allocs != 0 {
		t.Fatalf("prepareIteration allocates %.1f times in steady state, want 0", allocs)
	}
}

// TestHasherMatchesReferenceEvaluators: the party's hasher must produce
// exactly what the reference evaluator produces over a BitVec for the
// same layout offsets — the end-to-end form of the golden tests, through
// real party state. The counter is checked against Hash over a BitVec
// holding k, not against HashUint, which HashK itself calls.
func TestHasherMatchesReferenceEvaluators(t *testing.T) {
	g := graph.Line(3)
	e := testEnv(t, g)
	p := newParty(e, 1)
	for _, ls := range p.links {
		for i := 1; i <= 17; i++ {
			ls.T.Append([]bitstring.Symbol{bitstring.Sym0, bitstring.Sym1})
		}
	}
	for it := 0; it < 3; it++ {
		p.prepareIteration(it)
		for _, ls := range p.links {
			h := hasher{env: e, ls: ls}
			for k := 1; k <= 4; k++ {
				kv := bitstring.NewBitVec(meeting.KWidth)
				kv.AppendUint(uint64(k), meeting.KWidth)
				want := e.hash.Hash(kv, ls.src, e.seedLay.Offset(it, hashing.SlotK))
				if got := h.HashK(k); got != want {
					t.Fatalf("it=%d HashK(%d) = %#x, want %#x", it, k, got, want)
				}
			}
			for chunks := 0; chunks <= ls.T.Len(); chunks += 5 {
				for slot := 1; slot <= 2; slot++ {
					s := hashing.SlotMP1
					if slot == 2 {
						s = hashing.SlotMP2
					}
					want := e.hash.HashPrefix(ls.T.Bits(), ls.T.PrefixBits(chunks), ls.src, e.seedLay.Offset(it, s))
					if got := h.HashPrefix(chunks, slot); got != want {
						t.Fatalf("it=%d HashPrefix(%d,%d) = %#x, want %#x", it, chunks, slot, got, want)
					}
				}
			}
		}
	}
}

// TestRunReproducibleAcrossProcesses guards the CRSKey promise ("runs
// with equal keys are reproducible"): two exchange-mode runs with the same
// seed must agree exactly. The seed code drew per-link randomness while
// ranging over the links map, so the link→seed assignment — and every
// downstream metric — varied between executions.
func TestRunReproducibleAcrossProcesses(t *testing.T) {
	g := graph.Ring(8)
	run := func() *Result {
		proto := protocol.NewRandom(g, 100, 0.5, 9, nil)
		params := ParamsFor(AlgA, g)
		params.IterFactor = 3
		res, err := Run(Options{
			Protocol:  proto,
			Params:    params,
			Adversary: adversary.NewRandomRate(0.0005, rand.New(rand.NewSource(3))),
		})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := run(), run()
	if a.Metrics.CC != b.Metrics.CC || a.Iterations != b.Iterations || a.Success != b.Success {
		t.Fatalf("same-seed runs diverge: cc %d vs %d, iters %d vs %d",
			a.Metrics.CC, b.Metrics.CC, a.Iterations, b.Iterations)
	}
}
