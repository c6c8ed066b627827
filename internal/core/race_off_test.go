//go:build !race

package core

// raceEnabled reports a -race build, whose shadow memory multiplies a
// large test's footprint.
const raceEnabled = false
