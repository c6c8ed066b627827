//go:build race

package main

// raceEnabled reports a -race build, whose profiles credit the race
// runtime's C frames with no Go caller.
const raceEnabled = true
