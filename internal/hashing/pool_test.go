package hashing

import (
	"math/rand"
	"testing"

	"mpic/internal/bitstring"
)

// TestCheckpointedDirtyPoolEquivalence pins the arena-safety property: a
// store drawing recycled (dirty) buffers from a pool produces exactly
// the hashes of a freshly allocated one, across block switches and
// prefix growth.
func TestCheckpointedDirtyPoolEquivalence(t *testing.T) {
	h := NewInnerProductHash(8, 4096)
	pool := &BufferPool{}
	// Poison the pool with dirty buffers so reuse of stale words would
	// show up as a hash mismatch.
	for i := 0; i < 6; i++ {
		dirty := make([]uint64, 0, 512)
		dirty = dirty[:cap(dirty)]
		for j := range dirty {
			dirty[j] = 0xdeadbeefdeadbeef
		}
		pool.Put(dirty)
	}
	rng := rand.New(rand.NewSource(7))
	x := bitstring.NewBitVec(2048)
	for i := 0; i < 2048; i++ {
		x.Append(byte(rng.Intn(2)))
	}
	for round := 0; round < 3; round++ {
		src := NewPRFSource(uint64(round+1), uint64(round*13+5))
		fresh := NewCheckpointedIn(nil, h, src, 0, x, 32)
		pooled := NewCheckpointedIn(pool, h, src, 0, x, 32)
		for _, base := range []uint64{0, 3 * h.SeedWords(), 7 * h.SeedWords()} {
			fresh.SetBlock(base)
			pooled.SetBlock(base)
			for _, nbits := range []int{0, 13, 64, 700, 2048} {
				if got, want := pooled.HashPrefix(nbits), fresh.HashPrefix(nbits); got != want {
					t.Fatalf("round=%d base=%d nbits=%d: pooled %#x != fresh %#x", round, base, nbits, got, want)
				}
			}
		}
		pooled.Release(pool)
	}
}

// TestBufferPoolRecycles pins the pooling mechanics: released buffers
// come back on capacity match, and Reset drops them.
func TestBufferPoolRecycles(t *testing.T) {
	pool := &BufferPool{}
	if got := pool.Get(100); cap(got) < 100 {
		t.Fatalf("Get(100) cap %d", cap(got))
	}
	big := make([]uint64, 0, 1000)
	pool.Put(big)
	pool.Put(make([]uint64, 0)) // zero-cap: dropped
	if pool.Len() != 1 {
		t.Fatalf("pool holds %d buffers, want 1", pool.Len())
	}
	got := pool.Get(500)
	if cap(got) != 1000 {
		t.Fatalf("Get(500) did not reuse the 1000-cap buffer (cap %d)", cap(got))
	}
	if pool.Len() != 0 {
		t.Fatalf("pool holds %d buffers after reuse, want 0", pool.Len())
	}
	pool.Put(got)
	pool.Reset()
	if pool.Len() != 0 {
		t.Fatal("Reset left buffers pooled")
	}
	// A released store hands all three buffers back.
	h := NewInnerProductHash(4, 1024)
	s := NewCheckpointedIn(pool, h, NewPRFSource(1, 2), 0, bitstring.NewBitVec(0), 8)
	s.Release(pool)
	if pool.Len() != 3 {
		t.Fatalf("Release returned %d buffers, want 3 (rows + stage + checkpoints)", pool.Len())
	}
	var nilStore *Checkpointed
	nilStore.Release(pool) // must not panic
	var nilPool *BufferPool
	if got := nilPool.Get(10); cap(got) < 10 {
		t.Fatalf("nil pool Get(10) cap %d", cap(got))
	}
}
