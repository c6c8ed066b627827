package core

import (
	"sync"

	"mpic/internal/hashing"
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
// The free list needs no bound: a run creates a store only when the list
// is empty, so the list never holds more stores than the runs that
// overlapped in time once held together.
//
// An Arena is safe for concurrent use by multiple runs — the grid engine
// drives one arena from its whole worker pool — and results are
// bit-identical with and without one (a recycled store re-derives every
// word before it reads it). Stats exposes the cumulative counters.
type Arena struct {
	mu    sync.Mutex
	free  []*hashing.Checkpointed
	stats ArenaStats
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

// Reset drops every retired store and clears the traffic counters.
func (a *Arena) Reset() {
	if a == nil {
		return
	}
	a.mu.Lock()
	a.free, a.stats = nil, ArenaStats{}
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
