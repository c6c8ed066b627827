package hashing

import (
	"mpic/internal/bitstring"
)

// DefaultCheckpointSpacing is the checkpoint interval in 64-bit words.
// Eight words (512 transcript bits) keeps the per-evaluation resume sweep
// a few cache lines long while storing one τ-word snapshot per 8·τ seed
// words — a 12.5% memory overhead on the materialized seed rows. Smaller
// spacings buy nothing once the resume sweep is already cheaper than the
// hash's fixed costs (fold + bookkeeping); larger ones make every
// evaluation re-sweep a longer tail for no memory that matters. See
// PERF.md ("checkpoint spacing") for the measurements behind the default.
const DefaultCheckpointSpacing = 8

// Checkpointed evaluates prefix hashes of one growing, rewindable bit
// vector against one fixed seed block, in time proportional to the growth
// since the previous evaluation rather than to the prefix length.
//
// It maintains the τ per-row partial accumulators of the inner-product
// kernel, snapshotted every spacing words: checkpoint i stores the
// accumulator state over words [0, i·spacing) of x. HashPrefix resumes
// from the highest valid checkpoint at or below the requested prefix,
// sweeps only the remaining tail, and pushes new checkpoints as it
// crosses boundaries. Because the meeting-points mechanism only ever
// extends or truncates the transcript, successive evaluations touch
// Θ(growth + spacing) words instead of re-sweeping from word 0.
//
// Invalidation contract: checkpoints cache a pure function of x's prefix
// content, so they are invalidated structurally, not by caller
// convention. The store attaches a bitstring.Watermark to x at
// construction; whenever x's mutation generation changes, the store takes
// the watermark — the minimum length x has had since the last evaluation
// — and discards every checkpoint covering words at or above that low
// point before hashing. Callers therefore never notify the store of
// truncations (Transcript.TruncateTo simply truncates the vector); a
// checkpoint can only be consulted after any rollback below it has been
// observed. Appends never invalidate: bits below a previous length are
// immutable under append, which is exactly the access pattern
// (truncate-or-extend) the meeting points of Braverman–Gelles–Mao–
// Ostrovsky guarantee.
//
// The output is bit-identical to
// InnerProductHash.HashPrefix(x, nbits, src, base) — the golden fuzz test
// pins this under randomized append/truncate/hash schedules — so both
// endpoints of a link agree as long as they use the same base offset,
// which SeedLayout.StableOffset provides. A Checkpointed is owned by one
// link endpoint and is not safe for concurrent use.
type Checkpointed struct {
	h *InnerProductHash
	x *bitstring.BitVec
	c *BlockCache // seed rows of the fixed block at base
	w *bitstring.Watermark

	spacing int
	fine    int      // dense spacing inside the rewind band (spacing/4, min 1)
	gen     uint64   // x.Gen() at the last sync
	ck      []uint64 // ck[(i-1)·τ + j]: row-j accumulator of checkpoint i
	ckw     []int    // ckw[i-1]: words covered by checkpoint i (ascending)
	nck     int      // highest valid checkpoint index (0 = none)

	lastLen int // x.Len() at the last sync — rewind depths measure from here
	band    int // decaying max observed rewind depth in bits (0 = no rewind yet)
}

// NewCheckpointed returns an incremental prefix hasher for x over the
// seed block of src starting at base (normally SeedLayout.StableOffset).
// hintWords pre-sizes the seed rows and the checkpoint store for row
// prefixes of that many words, so steady-state hashing allocates nothing;
// spacing is the checkpoint interval in words (≤ 0 selects
// DefaultCheckpointSpacing).
func NewCheckpointed(h *InnerProductHash, src SeedSource, base uint64, x *bitstring.BitVec, hintWords, spacing int) *Checkpointed {
	return NewCheckpointedIn(nil, h, src, base, x, hintWords, spacing)
}

// NewCheckpointedIn is NewCheckpointed drawing the seed-row and
// checkpoint buffers from pool (nil behaves like NewCheckpointed). Hand
// the buffers back with Release when the run is over so the next run can
// reuse them — this is what keeps grids of checkpointed-hash runs from
// paying the accumulator/checkpoint allocations per run.
func NewCheckpointedIn(pool *BufferPool, h *InnerProductHash, src SeedSource, base uint64, x *bitstring.BitVec, hintWords, spacing int) *Checkpointed {
	if spacing <= 0 {
		spacing = DefaultCheckpointSpacing
	}
	fine := spacing / 4
	if fine < 1 {
		fine = 1
	}
	s := &Checkpointed{
		h:       h,
		x:       x,
		c:       NewBlockCacheIn(pool, h, src, hintWords),
		w:       x.AttachWatermark(),
		spacing: spacing,
		fine:    fine,
		gen:     x.Gen(),
		lastLen: x.Len(),
	}
	s.c.SetBlock(base)
	if maxRow := int(h.wordsPerRow()); hintWords > maxRow {
		hintWords = maxRow
	}
	if hintWords > 0 {
		need := hintWords/spacing + 1
		if pool != nil {
			s.ck = pool.Get(need * h.Tau)
		} else {
			s.ck = make([]uint64, 0, need*h.Tau)
		}
		s.ckw = make([]int, 0, need)
	}
	return s
}

// SetBlock re-points the store at a new seed block — the epoch-refresh
// primitive. Every checkpoint is discarded (the accumulators cache inner
// products against the old block's rows) and the seed-row cache is
// rebased, both keeping their allocations; the next HashPrefix re-sweeps
// the whole prefix against the fresh block. Callers that refresh every R
// iterations therefore pay one Θ(|T|) sweep per epoch — amortized
// Θ(|T|/R) per iteration — in exchange for bounding how long a colliding
// prefix pair can persist (see the package doc's union-bound discussion).
// Re-pointing at the current block is a no-op.
func (s *Checkpointed) SetBlock(base uint64) {
	if s.c.haveSet && s.c.base == base {
		return
	}
	s.c.SetBlock(base)
	s.nck = 0
}

// Base returns the first stream word of the current seed block.
func (s *Checkpointed) Base() uint64 { return s.c.base }

// Release hands the store's buffers back to pool (nil is a no-op) and
// empties the store; it must not be used afterwards. Checkpoint contents
// never leak between runs: a fresh store starts with zero valid
// checkpoints and rebuilds every accumulator from its own transcript and
// seed block before any read.
func (s *Checkpointed) Release(pool *BufferPool) {
	if s == nil || pool == nil {
		return
	}
	s.c.Release(pool)
	pool.Put(s.ck)
	s.ck = nil
	s.ckw = nil
	s.nck = 0
}

// Source returns the underlying seed source.
func (s *Checkpointed) Source() SeedSource { return s.c.Source() }

// Spacing returns the checkpoint interval in words.
func (s *Checkpointed) Spacing() int { return s.spacing }

// Checkpoints returns the number of currently valid checkpoints (test and
// instrumentation hook).
func (s *Checkpointed) Checkpoints() int {
	s.sync()
	return s.nck
}

// sync discards checkpoints that a rollback of x may have invalidated.
// The generation check makes the no-mutation case one comparison; after
// any mutation the watermark yields the lowest bit length x reached, and
// every checkpoint covering words at or beyond that point is dropped.
// Observed rewinds also feed the adaptive-spacing band: the depth of the
// deepest recent truncation (as a decaying maximum) sizes the region
// below the live frontier that gets denser checkpoints, so the next
// truncation of similar depth lands near a checkpoint instead of forcing
// a long re-sweep from a sparse one.
func (s *Checkpointed) sync() {
	g := s.x.Gen()
	if g == s.gen {
		return
	}
	low := s.w.Take()
	if depth := s.lastLen - low; depth > 0 {
		s.band -= s.band >> 2
		if depth > s.band {
			s.band = depth
		}
	}
	s.lastLen = s.x.Len()
	// Binary search for the number of checkpoints whose covered words all
	// lie strictly below the low-water word (ckw is ascending).
	lw := low >> 6
	lo, hi := 0, s.nck
	for lo < hi {
		mid := (lo + hi) / 2
		if s.ckw[mid] <= lw {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo < s.nck {
		s.nck = lo
	}
	s.gen = g
}

// RewindBand returns the current adaptive-spacing band in bits: the
// decaying maximum truncation depth observed so far (0 until the first
// rewind — fixed-spacing behavior is bit-for-bit unchanged until then).
// Test and instrumentation hook.
func (s *Checkpointed) RewindBand() int {
	s.sync()
	return s.band
}

// HashPrefix evaluates the hash on the first nbits bits of x, resuming
// from the highest valid checkpoint at or below the prefix. Output is
// bit-identical to the reference evaluator on the same seed block;
// steady-state evaluation allocates nothing.
func (s *Checkpointed) HashPrefix(nbits int) uint64 {
	if nbits > s.x.Len() {
		nbits = s.x.Len()
	}
	if nbits < 0 {
		nbits = 0
	}
	s.sync()
	xw := s.x.RawWords()
	nw, tailMask := s.h.sweepBounds(nbits, len(xw))
	if nw == 0 {
		return 0
	}
	s.c.ensure(nw)
	tau := s.h.Tau
	buf := s.c.buf
	// Resume. The final word of the sweep is tail-masked, so a checkpoint
	// is usable only if every word it covers lies strictly before nw-1:
	// binary-search the highest checkpoint with ckw ≤ nw-1.
	k := 0
	{
		lo, hi := 0, s.nck
		for lo < hi {
			mid := (lo + hi) / 2
			if s.ckw[mid] <= nw-1 {
				lo = mid + 1
			} else {
				hi = mid
			}
		}
		k = lo
	}
	var acc [64]uint64
	start := 0
	if k > 0 {
		copy(acc[:tau], s.ck[(k-1)*tau:k*tau])
		start = s.ckw[k-1]
	}
	// Adaptive spacing: inside the band of recently observed truncation
	// depths below the live frontier, checkpoints go down every fine
	// words instead of every spacing words; bandStart stays past nw when
	// no rewind has been seen, reproducing the fixed grid exactly.
	frontier := 0
	if s.nck > 0 {
		frontier = s.ckw[s.nck-1]
	}
	bandStart := nw // band empty unless a rewind has been observed
	if s.band > 0 {
		bandStart = (s.x.Len() - s.band) >> 6
		if bandStart < 0 {
			bandStart = 0
		}
	}
	// Segmented sweep: run whole checkpoint-free stretches through the
	// dispatched τ-row kernel (see kernel.go) and snapshot only at the
	// segment boundaries. nextPush gives the first word at or past which
	// the per-word schedule would have snapshotted — frontier+spacing on
	// the sparse grid, with the dense interval taking over at bandStart —
	// so the checkpoint positions are bit-for-bit the ones the original
	// word-at-a-time loop produced (the spacing pin tests hold this).
	for i := start; i < nw; {
		p := s.nextPush(frontier, bandStart)
		if p < nw {
			// acc after the sweep covers exactly words [0, p) of x, all of
			// them complete (p ≤ nw-1 < ⌈Len/64⌉) and unmasked: snapshot.
			kernelSweep(&acc, xw[i:p], buf[i*tau:], tau)
			s.pushCheckpoint(acc[:tau], p)
			frontier = p
			i = p
			continue
		}
		// Final segment: kernel over the complete words, then the
		// tail-masked last word (kernels only ever see complete words).
		kernelSweep(&acc, xw[i:nw-1], buf[i*tau:], tau)
		w := xw[nw-1] & tailMask
		for j, sw := range buf[(nw-1)*tau : nw*tau] {
			acc[j] ^= w & sw
		}
		break
	}
	return foldParity(acc[:tau])
}

// nextPush returns the first word index at which the checkpoint schedule
// snapshots, given the current frontier: the next sparse-grid point
// frontier+spacing, unless that lands at or past the rewind band's start,
// where the dense interval takes over — the first dense point at or past
// bandStart. This is exactly the first i > frontier satisfying the
// per-word trigger i >= frontier + (fine if i >= bandStart else spacing),
// and it is always strictly past the frontier (fine >= 1), so the
// segmented sweep makes progress.
func (s *Checkpointed) nextPush(frontier, bandStart int) int {
	p := frontier + s.spacing
	if p >= bandStart {
		p = frontier + s.fine
		if p < bandStart {
			p = bandStart
		}
	}
	return p
}

// pushCheckpoint appends the next checkpoint snapshot, covering words
// [0, words), after the live frontier (entries past nck·τ are stale
// after an invalidation and are overwritten in place; append's geometric
// growth keeps steady-state extension allocation-free once warm).
func (s *Checkpointed) pushCheckpoint(acc []uint64, words int) {
	s.ck = append(s.ck[:s.nck*len(acc)], acc...)
	s.ckw = append(s.ckw[:s.nck], words)
	s.nck++
}
