// Package detrand holds the deterministic, site-hashed randomness
// primitives shared by every seed-driven decision maker in the repo —
// the fault injector (internal/faults), the virtual-time delay models
// and the network-fault schedule (internal/network). Each draw is a pure
// function of (seed, site, ordinal): no global state, no time, no
// math/rand, so any consumer replays bit-identically from its seed at
// any worker count.
//
// A site is a label's FNV-1a hash, computed once by NewSite: callers on
// a hot path (the delay models draw once or twice per symbol) keep their
// sites in package-level variables, so a draw is two splitmix64 rounds
// and nothing else.
//
// The package sits below everything (it imports nothing), which is what
// lets both internal/network and internal/faults draw from the same
// primitives without an import cycle through internal/core.
package detrand

// Site is a pre-hashed site label: the 64-bit FNV-1a hash of the label.
// The site namespaces decision streams so, e.g., save-error and
// torn-write decisions at the same ordinal are independent.
type Site uint64

// NewSite hashes a site label (64-bit FNV-1a, the same value hash/fnv's
// New64a produces).
func NewSite(label string) Site {
	h := uint64(14695981039346656037)
	for i := 0; i < len(label); i++ {
		h ^= uint64(label[i])
		h *= 1099511628211
	}
	return Site(h)
}

// Mix is the splitmix64 finalizer: a cheap, high-quality bijection that
// turns structured coordinates into uniform-looking 64-bit values.
func Mix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// Key folds a seed, a site, and an operation ordinal into one 64-bit
// coordinate.
func Key(seed int64, site Site, n uint64) uint64 {
	return Mix(Mix(uint64(seed)^uint64(site)) ^ n)
}

// Roll returns a uniform value in [0, 1), deterministic in
// (seed, site, n). A fault with probability p fires iff
// Roll(seed, site, n) < p.
func Roll(seed int64, site Site, n uint64) float64 {
	return float64(Key(seed, site, n)>>11) / float64(uint64(1)<<53)
}

// Pick returns a uniform value in [0, max), deterministic in
// (seed, site, n). max must be positive.
func Pick(seed int64, site Site, n uint64, max int) int {
	return int(Key(seed, site, n) % uint64(max))
}
