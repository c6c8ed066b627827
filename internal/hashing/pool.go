package hashing

import (
	"math/bits"
	"sync"
)

// BufferPool recycles the backing arrays of BlockCaches across runs. A
// coding-scheme run builds two large seed buffers per link endpoint (the
// mp1/mp2 prefix blocks, seedHint·τ words each) plus a small counter
// block; on an n-party clique that is Θ(n²) short-lived allocations per
// run. Batch drivers (the grid engine, the experiment harness) run
// hundreds of simulations back to back, so handing the buffers back to a
// pool turns the per-run cost into a one-time warm-up — the ROADMAP's
// "amortize seed materialization across links".
//
// Buffers are matched by capacity. The free list is segregated into
// power-of-two capacity classes (class k holds capacities in
// [2^(k-1), 2^k)): a request scans only its own class best-fit — a few
// entries, since one run's buffers concentrate in two or three classes —
// and falls through to the smallest-capacity buffer of the next
// non-empty class above, every member of which is guaranteed to fit.
// This keeps the former global best-fit semantics (a tiny counter-block
// request cannot claim a recycled prefix buffer while same-class buffers
// exist — see Get for why first-fit would defeat the pool) while
// replacing the O(pool) scan per Get with an O(class) one: the flat scan
// was measurable once n≥64 cliques pushed the pool to tens of thousands
// of buffers. Get and Put are safe for concurrent use; the pool never
// retains more than maxPooled buffers, so a pathological caller cannot
// leak unbounded memory through it.
type BufferPool struct {
	mu      sync.Mutex
	classes [numClasses][][]uint64
	n       int // total pooled buffers across classes
	stats   PoolStats
}

// numClasses covers every possible slice capacity (bits.Len of a
// positive int is at most 63 on 64-bit platforms, plus class 0 unused).
const numClasses = 64

// capClass maps a capacity to its class: bits.Len(c), so class k holds
// capacities in [2^(k-1), 2^k). Every buffer in any class above
// capClass(minCap) has capacity ≥ 2^capClass(minCap) > minCap.
func capClass(c int) int {
	return bits.Len(uint(c))
}

// PoolStats counts a pool's traffic: Hits and Misses split the Get calls
// into those served from the free list and those that had to allocate,
// and WordsReused totals the capacity (in 64-bit words) of the reused
// buffers. The counters are cumulative over the pool's lifetime (Reset
// clears them) and are what makes the maxPooled bound and the class
// structure tunable from measurements instead of guesses: a steady Miss
// rate on a warmed-up pool means the bound is too small (or the fit too
// coarse) for the topology being swept.
type PoolStats struct {
	Hits        uint64
	Misses      uint64
	WordsReused uint64
}

// Sub returns the stats accumulated since the earlier snapshot prev.
func (s PoolStats) Sub(prev PoolStats) PoolStats {
	return PoolStats{
		Hits:        s.Hits - prev.Hits,
		Misses:      s.Misses - prev.Misses,
		WordsReused: s.WordsReused - prev.WordsReused,
	}
}

// Stats returns a snapshot of the pool's cumulative counters.
func (p *BufferPool) Stats() PoolStats {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.stats
}

// maxPooled bounds the free list. 32768 covers the roughly eight pooled
// buffers per link endpoint (two block caches plus a checkpoint store
// for each prefix slot, and the counter block) of a 64-clique (m=2016,
// 4032 endpoints) — the telemetry-driven raise from the former 4096,
// which capped out at a 26-clique and turned every n≥64 sweep into a
// steady miss stream (PERF.md, "arena tuning").
const maxPooled = 32768

// Get returns a zero-length buffer with capacity at least minCap, reusing
// the best-fitting pooled array in minCap's capacity class, or the
// smallest buffer of the next non-empty class above it. Fit quality
// matters: each link endpoint requests one tiny counter block before its
// two large prefix blocks, and a first-fit policy would let the tiny
// request claim a recycled prefix buffer, forcing the large requests
// that follow to allocate fresh — the exact churn the pool exists to
// remove.
func (p *BufferPool) Get(minCap int) []uint64 {
	if minCap < 1 {
		minCap = 1
	}
	p.mu.Lock()
	// Best fit within the request's own class (capacities here straddle
	// minCap, so each candidate must be checked).
	cls := capClass(minCap)
	best := -1
	free := p.classes[cls]
	for i, b := range free {
		if cap(b) >= minCap && (best < 0 || cap(b) < cap(free[best])) {
			best = i
		}
	}
	if best < 0 {
		// Fall through to the smallest buffer of the first non-empty
		// class above: every buffer there fits by construction.
		for c := cls + 1; c < numClasses; c++ {
			if len(p.classes[c]) == 0 {
				continue
			}
			free = p.classes[c]
			cls = c
			best = 0
			for i, b := range free {
				if cap(b) < cap(free[best]) {
					best = i
				}
			}
			break
		}
	}
	if best >= 0 {
		b := free[best]
		last := len(free) - 1
		free[best] = free[last]
		free[last] = nil
		p.classes[cls] = free[:last]
		p.n--
		p.stats.Hits++
		p.stats.WordsReused += uint64(cap(b))
		p.mu.Unlock()
		return b[:0]
	}
	p.stats.Misses++
	p.mu.Unlock()
	return make([]uint64, 0, minCap)
}

// Put hands a buffer back to the pool. Zero-capacity slices and overflow
// beyond the pool bound are dropped.
func (p *BufferPool) Put(buf []uint64) {
	if cap(buf) == 0 {
		return
	}
	p.mu.Lock()
	if p.n < maxPooled {
		cls := capClass(cap(buf))
		p.classes[cls] = append(p.classes[cls], buf[:0])
		p.n++
	}
	p.mu.Unlock()
}

// Reset drops every pooled buffer, releasing the memory to the garbage
// collector, and clears the traffic counters.
func (p *BufferPool) Reset() {
	p.mu.Lock()
	p.classes = [numClasses][][]uint64{}
	p.n = 0
	p.stats = PoolStats{}
	p.mu.Unlock()
}

// Len reports how many buffers the pool currently holds.
func (p *BufferPool) Len() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.n
}
