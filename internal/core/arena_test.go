package core

import (
	"testing"

	"mpic/internal/graph"
	"mpic/internal/protocol"
)

// retainedBytes is what the arena's free lists hold: every retired
// store's, chunking's and exchange slab's capacity.
func (a *Arena) retainedBytes() int {
	a.mu.Lock()
	defer a.mu.Unlock()
	n := 0
	for _, s := range a.free {
		n += 8 * s.Words()
	}
	for _, c := range a.chunkings {
		_, held := c.Bytes()
		n += held
	}
	for _, s := range a.exch {
		n += cap(s.send) + cap(s.recv) + cap(s.erased)
	}
	return n
}

// TestArenaRatchetBounded runs one long scenario and then short ones
// through one arena, as a Runner does, and requires the arena's retained
// bytes to fall back within retainSlack times what the short runs leave
// in an arena of their own. Before the bound, the long run's stores and
// chunking stayed at their size for every later run.
func TestArenaRatchetBounded(t *testing.T) {
	g := graph.Ring(5)
	params := quickParams(AlgA, g, 3)
	run := func(arena *Arena, rounds int, seed int64) {
		t.Helper()
		proto := protocol.NewRandom(g, rounds, 0.5, seed, nil)
		if _, err := Run(Options{Protocol: proto, Params: params, Arena: arena}); err != nil {
			t.Fatal(err)
		}
	}
	shorts := func(arena *Arena) {
		for seed := int64(1); seed <= 3; seed++ {
			run(arena, 15*g.N(), seed)
		}
	}
	own := NewArena()
	shorts(own)
	need := own.retainedBytes()

	shared := NewArena()
	run(shared, 2000, 9)
	if long := shared.retainedBytes(); long <= retainSlack*need {
		t.Fatalf("the long run left %d B, within %d times the short runs' %d B: the test shows no ratchet", long, retainSlack, need)
	}
	shorts(shared)
	if got := shared.retainedBytes(); got > retainSlack*need {
		t.Errorf("after the short runs the arena retains %d B, want at most %d times their %d B", got, retainSlack, need)
	}
	if n := len(shared.free); n != len(own.free) {
		t.Errorf("the arena keeps %d stores, want the short runs' %d", n, len(own.free))
	}
}

// TestArenaExchangeSlabs pins the exchange slabs' recycling: a run draws
// retired slabs at least its size, cut to its length, and slabs holding
// more than retainSlack times the run's length are dropped on return.
func TestArenaExchangeSlabs(t *testing.T) {
	a := NewArena()
	big := a.exchange(100 * retainSlack)
	a.releaseExchange(big)
	got := a.exchange(100)
	if len(got.send) != 100 || len(got.recv) != 100 || len(got.erased) != 100 || &got.send[0] != &big.send[0] {
		t.Fatalf("drew slabs of %d/%d/%d entries, recycled %v; want 100 each from the retired ones",
			len(got.send), len(got.recv), len(got.erased), &got.send[0] == &big.send[0])
	}
	a.releaseExchange(got)
	if len(a.exch) != 1 {
		t.Fatalf("slabs at retainSlack times the run's length were dropped")
	}
	got = a.exchange(99)
	a.releaseExchange(got)
	if len(a.exch) != 0 {
		t.Fatalf("slabs over retainSlack times the run's length were kept")
	}
}
