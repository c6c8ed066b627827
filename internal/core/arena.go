package core

import (
	"sync"

	"mpic/internal/hashing"
	"mpic/internal/protocol"
)

// Arena recycles the per-link prefix-hash stores across runs. One run of
// a scheme builds, per link endpoint, two checkpointed prefix hashers —
// each hasher's seed rows alone are seedHint·τ words, plus a staging row
// and its accumulator snapshots — and drops them all at the end; a
// caller executing many runs (the grid engine, the experiment harness)
// pays that allocation churn for every cell. Passing the same Arena
// through Options.Arena makes each run draw retired stores from the
// previous runs and hand its own back on exit, so steady-state sweeps
// stop allocating in the seed-materialization path. A recycled store
// keeps its own buffers, so each buffer returns to the role it had.
//
// The arena recycles each run's chunking of Π (rebuilt in place by
// protocol.RebuildChunking) and, on the exchange schemes, its three
// exchange slabs (one codeword per edge for the sent bits, the received
// bits and the erasure marks) the same way, and takes them back on every
// exit path. Stats counts stores only.
//
// A run makes a new item only when its free list is empty, so a list
// never holds more items than overlapping runs once held together. A
// recycled item keeps its capacity, so without a bound one long run
// would leave its buffers to every later short run. The arena drops a
// returned item holding more than retainSlack times what the returning
// run needed of it (a store: hashing.Checkpointed.NeedWords; a
// chunking: the bytes it uses; exchange slabs: their length). The bound
// is per item: stores left by a run on more links than later runs draw
// stay on the list.
//
// An Arena is safe for concurrent use by multiple runs — the grid engine
// drives one arena from its whole worker pool — and results are
// bit-identical with and without one (a recycled store re-derives every
// word before it reads it, a rebuilt chunking writes every entry before
// it reads it, and every codeword buffer starts empty and is filled by
// appends). Stats exposes the cumulative counters.
type Arena struct {
	mu        sync.Mutex
	free      []*hashing.Checkpointed
	chunkings []*protocol.Chunking
	exch      []exchSlabs
	stats     ArenaStats
}

// retainSlack is the ratchet bound (see Arena). It sits above the ratios
// of held to needed that mixed batches reach, so it never fires on them:
// 3.3 on the grid-session benchmark's n 4,6 × A,B grid, and 10.4 (a
// chunking) on the 14 quick tables, which share one Runner across
// topologies. At 4, the tables' store misses rise from 112 to 128.
const retainSlack = 16

// exchSlabs is one run's randomness-exchange buffers: for each edge, one
// codeword's room for the bits its sender encodes, the bits its receiver
// hears and the receiver's erasure marks, cut off in party order.
type exchSlabs struct {
	send, recv []byte
	erased     []bool
}

// ArenaStats is a snapshot of an arena's traffic: how many prefix-hash
// stores were drawn from the free list (Hits) versus built fresh
// (Misses), and the capacity in 64-bit words of the drawn stores'
// buffers (WordsReused). A warmed-up arena serving same-shaped runs
// shows no misses.
type ArenaStats struct {
	Hits        uint64
	Misses      uint64
	WordsReused uint64
}

// Sub returns the stats accumulated since the earlier snapshot prev.
func (s ArenaStats) Sub(prev ArenaStats) ArenaStats {
	return ArenaStats{
		Hits:        s.Hits - prev.Hits,
		Misses:      s.Misses - prev.Misses,
		WordsReused: s.WordsReused - prev.WordsReused,
	}
}

// NewArena returns an empty arena.
func NewArena() *Arena { return &Arena{} }

// Reset drops every retired item and clears the traffic counters.
func (a *Arena) Reset() {
	if a == nil {
		return
	}
	a.mu.Lock()
	a.free, a.chunkings, a.exch, a.stats = nil, nil, nil, ArenaStats{}
	a.mu.Unlock()
}

// Stats returns the arena's cumulative counters. It is safe to call
// concurrently with runs; per-run deltas are surfaced through
// Result.Arena.
func (a *Arena) Stats() ArenaStats {
	if a == nil {
		return ArenaStats{}
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.stats
}

// get pops a retired store, or returns nil (a miss) when none is left; a
// nil arena always returns nil.
func (a *Arena) get() *hashing.Checkpointed {
	if a == nil {
		return nil
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	n := len(a.free)
	if n == 0 {
		a.stats.Misses++
		return nil
	}
	s := a.free[n-1]
	a.free[n-1] = nil
	a.free = a.free[:n-1]
	a.stats.Hits++
	a.stats.WordsReused += uint64(s.Words())
	return s
}

// release hands a party's per-link prefix-hash stores back to the arena,
// detached from the run's transcripts and seed sources so the free list
// keeps only their buffers alive; a store holding more than retainSlack
// times its need is dropped instead. Exchange-mode receivers bind late,
// so a link may have none yet.
func (a *Arena) release(p *party) {
	a.mu.Lock()
	defer a.mu.Unlock()
	for _, ls := range p.links {
		for _, s := range [...]*hashing.Checkpointed{ls.p1, ls.p2} {
			if s != nil && s.Words() <= retainSlack*s.NeedWords() {
				s.Detach()
				a.free = append(a.free, s)
			}
		}
		ls.p1, ls.p2 = nil, nil
	}
}

// chunking chunks p's schedule at chunkBits bits per chunk in a retired
// chunking's buffers, or in fresh ones when none is left or a is nil.
func (a *Arena) chunking(p protocol.Protocol, chunkBits int) *protocol.Chunking {
	var old *protocol.Chunking
	if a != nil {
		a.mu.Lock()
		if n := len(a.chunkings); n > 0 {
			old = a.chunkings[n-1]
			a.chunkings[n-1] = nil
			a.chunkings = a.chunkings[:n-1]
		}
		a.mu.Unlock()
	}
	return protocol.RebuildChunking(old, p, chunkBits)
}

// releaseChunking hands a finished run's chunking back to the arena. It
// drops the schedule, so the free list does not keep the run's protocol
// alive; a nil arena drops the chunking, and so does an arena when the
// chunking holds more than retainSlack times the bytes the run used.
func (a *Arena) releaseChunking(c *protocol.Chunking) {
	if a == nil {
		return
	}
	if used, held := c.Bytes(); held > retainSlack*used {
		return
	}
	c.Sched = nil
	a.mu.Lock()
	a.chunkings = append(a.chunkings, c)
	a.mu.Unlock()
}

// exchange returns exchange slabs of n entries each, cut from retired
// ones when the arena holds slabs that large, else fresh. Their contents
// are stale: each codeword buffer is cut empty and filled by appends.
func (a *Arena) exchange(n int) exchSlabs {
	var s exchSlabs
	if a != nil {
		a.mu.Lock()
		if k := len(a.exch); k > 0 {
			s = a.exch[k-1]
			a.exch[k-1] = exchSlabs{}
			a.exch = a.exch[:k-1]
		}
		a.mu.Unlock()
	}
	if cap(s.send) < n {
		return exchSlabs{send: make([]byte, n), recv: make([]byte, n), erased: make([]bool, n)}
	}
	return exchSlabs{send: s.send[:n], recv: s.recv[:n], erased: s.erased[:n]}
}

// releaseExchange hands a finished run's exchange slabs back to the
// arena, or drops them when they hold more than retainSlack times the
// run's n entries; a nil arena drops them.
func (a *Arena) releaseExchange(s exchSlabs) {
	if a == nil || cap(s.send) > retainSlack*len(s.send) {
		return
	}
	a.mu.Lock()
	a.exch = append(a.exch, s)
	a.mu.Unlock()
}
