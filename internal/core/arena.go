package core

import "mpic/internal/hashing"

// Arena recycles the per-link hash state buffers across runs. One run of
// a scheme allocates three seed block caches per link endpoint — the two
// prefix blocks alone are seedHint·τ words each — and drops them all at
// the end; a driver executing many runs (the grid engine, the
// experiment harness) pays that allocation churn for every cell.
// Passing the same Arena through Options.Arena makes each run draw its
// block buffers from the previous runs' and hand them back on exit, so
// steady-state sweeps stop allocating in the seed-materialization path
// (the ROADMAP's "amortize seed materialization across links"). The
// checkpointed hash path (HashEpoch) draws from the same pool: the
// checkpointed stores' seed rows and accumulator snapshots are recycled
// alongside the plain block caches.
//
// An Arena is safe for concurrent use by multiple runs — the grid engine
// drives one arena from its whole worker pool — and results are
// bit-identical with and without one (recycled buffers are fully
// re-materialized before any read). Stats exposes the pool's cumulative
// hit/miss/reuse counters for tuning.
type Arena struct {
	pool hashing.BufferPool
}

// ArenaStats is a snapshot of an arena's buffer-pool traffic: how many
// buffer requests were served from recycled memory (Hits) versus fresh
// allocations (Misses), and the total recycled capacity in 64-bit words
// (WordsReused). A warmed-up arena serving same-shaped runs should show
// a hit rate near 1; persistent misses mean the pool bound or the
// best-fit scan needs tuning for the topology being swept (the n≥64
// clique question the ROADMAP poses).
type ArenaStats = hashing.PoolStats

// NewArena returns an empty arena.
func NewArena() *Arena { return &Arena{} }

// Reset drops all pooled memory and clears the traffic counters.
func (a *Arena) Reset() {
	if a != nil {
		a.pool.Reset()
	}
}

// Stats returns the arena's cumulative pool counters. It is safe to call
// concurrently with runs; per-run deltas are surfaced through
// Result.Arena.
func (a *Arena) Stats() ArenaStats {
	if a == nil {
		return ArenaStats{}
	}
	return a.pool.Stats()
}

// release hands a party's per-link hash buffers back to the arena.
func (a *Arena) release(p *party) {
	for _, ls := range p.links {
		ls.ck.Release(&a.pool)
		ls.c1.Release(&a.pool)
		ls.c2.Release(&a.pool)
		ls.p1.Release(&a.pool)
		ls.p2.Release(&a.pool)
		ls.ck, ls.c1, ls.c2 = nil, nil, nil
		ls.p1, ls.p2 = nil, nil
	}
}
