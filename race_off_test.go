//go:build !race

package mpic_test

// raceEnabled reports a -race build, in which sync.Pool drops a random
// share of what is put back, so pooled generators are reallocated.
const raceEnabled = false
