package hashing

// BlockCache materializes one seed block — the τ rows feeding a single
// hash evaluation for one (iteration, link, slot) triple — into a flat
// buffer the hash kernel can sweep without per-word interface dispatch.
//
// The buffer is interleaved: buf[i*τ+j] holds stream word base + j·row + i,
// i.e. the i-th seed word of every row sits contiguously. The transposed
// kernel (InnerProductHash.hashWords) then loads each transcript word once
// and XORs it into all τ row accumulators while reading buf strictly
// sequentially. This is also the layout the vector kernels (kernel.go)
// consume: one broadcast input word ANDed against 4–8 contiguous row
// words per op. Alignment contract: buf is a []uint64, so the Go
// allocator guarantees 8-byte alignment; the AVX2 kernel uses only
// unaligned vector loads (VMOVDQU), for which 8-byte alignment is
// sufficient — no 32-byte padding is required, and row blocks may
// straddle cache lines safely.
//
// Prefix hashes only ever touch the first ⌈nbits/64⌉ words of each row, so
// the cache grows row prefixes on demand: a consistency check over a short
// transcript materializes only a short prefix of each row, and as the
// transcript grows across the phase the cache extends with one bulk Fill
// per row. Re-pointing the cache at a new block (SetBlock) resets the
// materialized length but keeps the allocation, so steady-state operation
// allocates nothing.
//
// A BlockCache is owned by one link endpoint and is not safe for
// concurrent use.
type BlockCache struct {
	h    *InnerProductHash
	src  SeedSource
	bulk BulkSeedSource // non-nil when src supports bulk fills

	base    uint64 // first stream word of the current block
	haveSet bool
	nw      int      // words materialized per row
	buf     []uint64 // interleaved seed words, len nw*τ
	stage   []uint64 // per-row staging for fills
}

// NewBlockCache returns a cache over src for hash h. hintWords, if
// positive, pre-sizes the buffer for row prefixes of that many words
// (callers derive it from the SeedLayout / expected transcript length) so
// a full run does no steady-state allocation in the hash path.
func NewBlockCache(h *InnerProductHash, src SeedSource, hintWords int) *BlockCache {
	return NewBlockCacheIn(nil, h, src, hintWords)
}

// NewBlockCacheIn is NewBlockCache drawing its buffers from pool (nil
// behaves like NewBlockCache). Hand the buffers back with Release when
// the run is over so the next run can reuse them.
func NewBlockCacheIn(pool *BufferPool, h *InnerProductHash, src SeedSource, hintWords int) *BlockCache {
	c := &BlockCache{h: h, src: src}
	c.bulk, _ = src.(BulkSeedSource)
	if maxRow := int(h.wordsPerRow()); hintWords > maxRow {
		hintWords = maxRow
	}
	if hintWords > 0 {
		if pool != nil {
			c.buf = pool.Get(hintWords * h.Tau)
			c.stage = pool.Get(hintWords)
		} else {
			c.buf = make([]uint64, 0, hintWords*h.Tau)
			c.stage = make([]uint64, 0, hintWords)
		}
	}
	return c
}

// Release returns the cache's buffers to pool and empties the cache. The
// cache must not be used afterwards. Every materialized word is
// re-derived from the seed source before any later read (SetBlock resets
// the materialized length), so recycled buffers can never leak one run's
// seed words into another's hash values.
func (c *BlockCache) Release(pool *BufferPool) {
	if c == nil || pool == nil {
		return
	}
	pool.Put(c.buf)
	pool.Put(c.stage)
	c.buf, c.stage = nil, nil
	c.nw = 0
	c.haveSet = false
}

// SetBlock points the cache at the seed block whose first stream word is
// base (a SeedLayout offset). Materialized words are kept when the block
// is unchanged and discarded — without releasing the buffer — otherwise.
func (c *BlockCache) SetBlock(base uint64) {
	if c.haveSet && c.base == base {
		return
	}
	c.base = base
	c.haveSet = true
	c.nw = 0
	c.buf = c.buf[:0]
}

// Source returns the underlying seed source (shared with the reference
// hash path and the randomness-exchange machinery).
func (c *BlockCache) Source() SeedSource { return c.src }

// ensure extends every row's materialized prefix to nw words.
func (c *BlockCache) ensure(nw int) {
	if nw <= c.nw {
		return
	}
	tau := c.h.Tau
	row := c.h.wordsPerRow()
	buf := c.buf
	if need := nw * tau; cap(buf) < need {
		// Grow geometrically: transcripts lengthen by one chunk per
		// iteration, and exact-fit growth would reallocate every iteration.
		newCap := 2 * cap(buf)
		if newCap < need {
			newCap = need
		}
		grown := make([]uint64, len(buf), newCap)
		copy(grown, buf)
		buf = grown
	}
	buf = buf[:nw*tau]
	seg := nw - c.nw
	if cap(c.stage) < seg {
		c.stage = make([]uint64, seg)
	}
	stage := c.stage[:seg]
	for j := 0; j < tau; j++ {
		off := c.base + uint64(j)*row + uint64(c.nw)
		if c.bulk != nil {
			c.bulk.Fill(stage, off)
		} else {
			for i := range stage {
				stage[i] = c.src.Word(off + uint64(i))
			}
		}
		for i, w := range stage {
			buf[(c.nw+i)*tau+j] = w
		}
	}
	c.buf = buf
	c.nw = nw
}
