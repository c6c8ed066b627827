package hashing

import (
	"math/bits"

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
// vector against one seed block at a time, in time proportional to the
// growth since the previous evaluation rather than to the prefix length.
// It is the only prefix evaluator of the protocol's hot path: both hash
// modes use it and differ only in which block SetBlock selects per
// iteration.
//
// It maintains the τ per-row partial accumulators of the inner-product
// kernel on a fixed grid: checkpoint i stores the accumulator state over
// words [0, i·spacing) of x, so a checkpoint's position is implied by its
// index. HashPrefix resumes from the highest valid checkpoint at or below
// the requested prefix, sweeps only the remaining tail, and pushes new
// checkpoints as it crosses grid points. Because the meeting-points mechanism only ever
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
// which the shared SeedLayout provides. A Checkpointed is owned by one
// link endpoint and is not safe for concurrent use.
type Checkpointed struct {
	h   *InnerProductHash
	x   *bitstring.BitVec
	src SeedSource
	w   *bitstring.Watermark

	// The seed rows of the current block, materialized on demand: rows is
	// interleaved, rows[i*τ+j] holding stream word base + j·row + i, so
	// the kernels load each transcript word once and AND it against τ
	// contiguous seed words (see kernel.go; the AVX2 kernel uses only
	// unaligned loads, for which a []uint64's 8-byte alignment suffices).
	// A prefix hash touches only the first ⌈nbits/64⌉ words of each row,
	// so nw grows with the transcript, one Fill per row per extension.
	base  uint64   // first stream word of the current block
	nw    int      // words materialized per row
	rows  []uint64 // len nw·τ
	stage []uint64 // one row's fill, before it is interleaved

	spacing int
	gen     uint64   // x.Gen() at the last sync
	ck      []uint64 // ck[(i-1)·τ + j]: row-j accumulator over words [0, i·spacing)
	nck     int      // highest valid checkpoint index (0 = none)

	// hint is the row prefix, in words, the store was sized for, and peak
	// the longest row prefix it has materialized since: NeedWords.
	hint, peak int
}

// NewCheckpointedIn returns an incremental prefix hasher for x over the
// seed block of src starting at base (a SeedLayout offset), with
// checkpoints every DefaultCheckpointSpacing words. hintWords pre-sizes
// the seed rows and the checkpoint store for row prefixes of that many
// words, so steady-state hashing allocates nothing.
//
// old, if non-nil, is a retired store that nothing uses any more: it is
// re-targeted at h, src, base and x and returned, keeping its buffers and
// allocating only where one is below the hint. This is how a batch of
// runs stops paying the seed-row and checkpoint allocations per run (see
// core.Arena). Nothing leaks between runs through a recycled store: it
// starts with no materialized seed words and no valid checkpoints, and
// derives every word it reads from its new seed block and transcript
// first.
func NewCheckpointedIn(old *Checkpointed, h *InnerProductHash, src SeedSource, base uint64, x *bitstring.BitVec, hintWords int) *Checkpointed {
	return newCheckpointed(old, h, src, base, x, hintWords, DefaultCheckpointSpacing)
}

// newCheckpointed is NewCheckpointedIn at an explicit checkpoint interval
// (spacing ≥ 1 words); the in-package tests and benchmarks vary it.
func newCheckpointed(old *Checkpointed, h *InnerProductHash, src SeedSource, base uint64, x *bitstring.BitVec, hintWords, spacing int) *Checkpointed {
	s := old
	if s == nil {
		s = new(Checkpointed)
	}
	*s = Checkpointed{
		h:       h,
		x:       x,
		src:     src,
		w:       x.AttachWatermark(),
		base:    base,
		rows:    s.rows[:0],
		stage:   s.stage[:0],
		spacing: spacing,
		gen:     x.Gen(),
		ck:      s.ck[:0],
	}
	if maxRow := int(h.wordsPerRow()); hintWords > maxRow {
		hintWords = maxRow
	}
	if hintWords > 0 {
		s.hint = hintWords
		rows, stage, ck := reservation(h.Tau, hintWords, spacing)
		s.rows = reserve(s.rows, rows)
		s.stage = reserve(s.stage, stage)
		s.ck = reserve(s.ck, ck)
	}
	return s
}

// reservation returns the buffer lengths, in words, that hashing row
// prefixes of nw words takes: the interleaved seed rows, the staging row
// and the checkpoint store.
func reservation(tau, nw, spacing int) (rows, stage, ck int) {
	return nw * tau, nw, (nw/spacing + 1) * tau
}

// NeedWords returns the buffer words a fresh store would hold for what
// this one has been asked since it was re-targeted: the reservation for
// its hint, or for the longest row prefix it materialized if that is
// longer. Words beyond it are capacity a larger earlier use left behind
// (core.Arena drops a store that holds too many).
func (s *Checkpointed) NeedWords() int {
	rows, stage, ck := reservation(s.h.Tau, max(s.hint, s.peak), s.spacing)
	return rows + stage + ck
}

// Detach drops the store's references to its transcript, seed source
// and hash, keeping only its buffers for NewCheckpointedIn to re-target;
// a retired store then keeps nothing of the run that used it reachable.
// The store is unusable until it is re-targeted.
func (s *Checkpointed) Detach() {
	*s = Checkpointed{rows: s.rows[:0], stage: s.stage[:0], ck: s.ck[:0]}
}

// reserve returns buf, or a fresh empty buffer of capacity n if buf's
// capacity is below n.
func reserve(buf []uint64, n int) []uint64 {
	if cap(buf) < n {
		return make([]uint64, 0, n)
	}
	return buf
}

// SetBlock re-points the store at a new seed block — the epoch-refresh
// primitive. Every checkpoint is discarded (the accumulators cache inner
// products against the old block's rows) and so are the materialized
// seed rows, both keeping their allocations; the next HashPrefix re-sweeps
// the whole prefix against the fresh block. Callers that refresh every R
// iterations therefore pay one Θ(|T|) sweep per epoch — amortized
// Θ(|T|/R) per iteration — in exchange for bounding how long a colliding
// prefix pair can persist (see the package doc's union-bound discussion).
// Re-pointing at the current block is a no-op. Under per-iteration
// seeds (a new block every iteration) the first evaluation of each
// iteration is a full sweep, laying the checkpoints that the iteration's
// later evaluations resume from.
func (s *Checkpointed) SetBlock(base uint64) {
	if s.base == base {
		return
	}
	s.base = base
	s.nw = 0
	s.rows = s.rows[:0]
	s.nck = 0
}

// Base returns the first stream word of the current seed block.
func (s *Checkpointed) Base() uint64 { return s.base }

// Words returns the capacity of the store's buffers in 64-bit words
// (arena telemetry).
func (s *Checkpointed) Words() int { return cap(s.rows) + cap(s.stage) + cap(s.ck) }

// Checkpoints returns the number of currently valid checkpoints (test and
// instrumentation hook).
func (s *Checkpointed) Checkpoints() int {
	s.sync()
	return s.nck
}

// sync discards checkpoints that a rollback of x may have invalidated.
// The generation check makes the no-mutation case one comparison; after
// any mutation the watermark yields the lowest bit length x reached, and
// only the checkpoints whose words all lie strictly below that point's
// word survive.
func (s *Checkpointed) sync() {
	g := s.x.Gen()
	if g == s.gen {
		return
	}
	if keep := (s.w.Take() >> 6) / s.spacing; keep < s.nck {
		s.nck = keep
	}
	s.gen = g
}

// ensure extends every row's materialized prefix to nw words.
func (s *Checkpointed) ensure(nw int) {
	if nw <= s.nw {
		return
	}
	tau := s.h.Tau
	rows := s.rows
	if need := nw * tau; cap(rows) < need {
		// Grow geometrically: transcripts lengthen by one chunk per
		// iteration, and exact-fit growth would reallocate every iteration.
		grown := make([]uint64, len(rows), max(2*cap(rows), need))
		copy(grown, rows)
		rows = grown
	}
	rows = rows[:nw*tau]
	seg := nw - s.nw
	if cap(s.stage) < seg {
		s.stage = make([]uint64, seg)
	}
	stage := s.stage[:seg]
	row := s.h.wordsPerRow()
	for j := 0; j < tau; j++ {
		s.src.Fill(stage, s.base+uint64(j)*row+uint64(s.nw))
		for i, w := range stage {
			rows[(s.nw+i)*tau+j] = w
		}
	}
	s.rows = rows
	s.nw = nw
	s.peak = max(s.peak, nw)
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
	// The sweep covers ⌈nbits/64⌉ words, with nbits clamped to the row
	// length, and stops at the words present (missing trailing words are
	// zero and contribute nothing); its final word is masked to nbits.
	nbits = min(nbits, 64*int(s.h.wordsPerRow()))
	xw := s.x.RawWords()
	nw := min((nbits+63)/64, len(xw))
	if nw == 0 {
		return 0
	}
	tailMask := ^uint64(0)
	if r := uint(nbits & 63); r != 0 {
		tailMask = 1<<r - 1
	}
	s.ensure(nw)
	tau := s.h.Tau
	buf := s.rows
	// Resume. The final word of the sweep is tail-masked, so a checkpoint
	// is usable only if every word it covers lies strictly before nw-1.
	k := min(s.nck, (nw-1)/s.spacing)
	var acc [64]uint64
	if k > 0 {
		copy(acc[:tau], s.ck[(k-1)*tau:k*tau])
	}
	// Segmented sweep: run whole checkpoint-free stretches through the
	// dispatched τ-row kernel (see kernel.go) and snapshot at each grid
	// point past the frontier nck·spacing that lies before the final word.
	// When k < nck the next grid point is already past nw-1, so the loop
	// is skipped and only the tail is swept.
	i := k * s.spacing
	for p := (s.nck + 1) * s.spacing; p < nw; p += s.spacing {
		// acc after the sweep covers exactly words [0, p) of x, all of
		// them complete (p ≤ nw-1 < ⌈Len/64⌉) and unmasked: snapshot.
		// Entries past nck·τ are stale after an invalidation and are
		// overwritten in place; append's geometric growth keeps
		// steady-state extension allocation-free once warm.
		kernelSweep(&acc, xw[i:p], buf[i*tau:], tau)
		s.ck = append(s.ck[:s.nck*tau], acc[:tau]...)
		s.nck++
		i = p
	}
	// Final segment: kernel over the complete words, then the tail-masked
	// last word (kernels only ever see complete words).
	kernelSweep(&acc, xw[i:nw-1], buf[i*tau:], tau)
	w := xw[nw-1] & tailMask
	for j, sw := range buf[(nw-1)*tau : nw*tau] {
		acc[j] ^= w & sw
	}
	var out uint64
	for j, a := range acc[:tau] {
		out |= uint64(bits.OnesCount64(a)&1) << j
	}
	return out
}
