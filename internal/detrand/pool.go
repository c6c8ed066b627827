package detrand

import (
	"math/rand"
	"sync"
)

// rands holds retired generators. Each is a rand.Rand over the standard
// library's rngSource, 4.9 KB of state that a run would otherwise
// allocate afresh for every seeded stream it draws from.
var rands = sync.Pool{New: func() any { return rand.New(rand.NewSource(0)) }}

// GetRand returns a math/rand generator seeded with seed, taken from a
// process-wide pool. Its stream is exactly that of
// rand.New(rand.NewSource(seed)): Seed rewrites the whole source state
// and drops Read's buffered bytes, whatever the generator drew before.
// Hand it back with PutRand once nothing draws from it any more.
func GetRand(seed int64) *rand.Rand {
	r := rands.Get().(*rand.Rand)
	r.Seed(seed)
	return r
}

// PutRand returns a generator from GetRand to the pool; r must not be
// used afterwards. A nil r is ignored.
func PutRand(r *rand.Rand) {
	if r != nil {
		rands.Put(r)
	}
}
