package detrand

import (
	"hash/fnv"
	"testing"
)

// refSite is the reference site hash: hash/fnv's 64-bit FNV-1a.
func refSite(label string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(label))
	return h.Sum64()
}

// refKey is the reference definition of Key: splitmix64 over the seed
// xor the FNV-1a hash of the site label, then over the ordinal.
func refKey(seed int64, label string, n uint64) uint64 {
	return Mix(Mix(uint64(seed)^refSite(label)) ^ n)
}

// pinnedKeys are Key(42, NewSite(label), 7) for every site label the network
// package draws from. They pin the draw streams independently of the
// reference: a change to Mix, to the label hash or to the fold shows up
// here even if refKey were changed to match.
var pinnedKeys = map[string]uint64{
	"delay-jitter":      0x31e29bf269427297,
	"delay-ln-u1":       0x18497b7d98d16f59,
	"delay-ln-u2":       0x15d78142c0241a06,
	"delay-band":        0x81e1475aeef80e58,
	"delay-band-jitter": 0xbcee8e0a1f31e6a1,
	"net-spike":         0xa1eed67ead38c91a,
	"net-outage":        0x3c064ab25863aad0,
	"net-straggler":     0xe23c9e2ec50c14ec,
	"net-crash":         0xec3e32b85abfd504,
	"net-crash-start":   0xd0aca6727aa52c77,
}

// TestKeyRollPickPinned checks Key, Roll and Pick against the reference
// for every network site label over a spread of seeds and ordinals, and
// pins Key's value at one coordinate per label.
func TestKeyRollPickPinned(t *testing.T) {
	seeds := []int64{0, 1, 42, -5, 1 << 40}
	ords := []uint64{0, 1, 7, 1 << 33, 0x9e3779b97f4a7c15}
	for label, pin := range pinnedKeys {
		site := NewSite(label)
		if uint64(site) != refSite(label) {
			t.Fatalf("NewSite(%q) = %#x, reference %#x", label, uint64(site), refSite(label))
		}
		if got := Key(42, site, 7); got != pin {
			t.Errorf("Key(42, %q, 7) = %#x, pinned %#x", label, got, pin)
		}
		for _, seed := range seeds {
			for _, n := range ords {
				ref := refKey(seed, label, n)
				if got := Key(seed, site, n); got != ref {
					t.Fatalf("Key(%d, %q, %d) = %#x, reference %#x", seed, label, n, got, ref)
				}
				if got, want := Roll(seed, site, n), float64(ref>>11)/float64(uint64(1)<<53); got != want {
					t.Fatalf("Roll(%d, %q, %d) = %v, reference %v", seed, label, n, got, want)
				}
				for _, max := range []int{1, 3, 17, 1000} {
					if got, want := Pick(seed, site, n, max), int(ref%uint64(max)); got != want {
						t.Fatalf("Pick(%d, %q, %d, %d) = %d, reference %d", seed, label, n, max, got, want)
					}
				}
			}
		}
	}
}
