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
// The arena recycles each run's chunking of Π the same way: the run
// rebuilds a retired chunking's slabs (protocol.RebuildChunking) and
// hands the chunking back on exit, on error paths too. Stats counts
// stores only.
//
// The free lists need no bound: a run creates a store or a chunking only
// when its list is empty, so a list never holds more than the runs that
// overlapped in time once held together.
//
// An Arena is safe for concurrent use by multiple runs — the grid engine
// drives one arena from its whole worker pool — and results are
// bit-identical with and without one (a recycled store re-derives every
// word before it reads it, and a rebuilt chunking writes every entry
// before it reads it). Stats exposes the cumulative counters.
type Arena struct {
	mu        sync.Mutex
	free      []*hashing.Checkpointed
	chunkings []*protocol.Chunking
	stats     ArenaStats
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

// Reset drops every retired store and chunking and clears the traffic
// counters.
func (a *Arena) Reset() {
	if a == nil {
		return
	}
	a.mu.Lock()
	a.free, a.chunkings, a.stats = nil, nil, ArenaStats{}
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
// keeps only their buffers alive. Exchange-mode receivers bind late, so a
// link may have none yet.
func (a *Arena) release(p *party) {
	a.mu.Lock()
	defer a.mu.Unlock()
	for _, ls := range p.links {
		for _, s := range [...]*hashing.Checkpointed{ls.p1, ls.p2} {
			if s != nil {
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
// alive; a nil arena drops the chunking.
func (a *Arena) releaseChunking(c *protocol.Chunking) {
	if a == nil {
		return
	}
	c.Sched = nil
	a.mu.Lock()
	a.chunkings = append(a.chunkings, c)
	a.mu.Unlock()
}
