//go:build purego || !amd64

package hashing

// hasAVX2 reports false: either the build excluded the assembly (the
// purego tag — the debugging and auditing escape hatch) or this GOARCH
// has no vector kernel. The portable word-batched kernel runs instead.
func hasAVX2() bool { return false }

// archSweep is never called on these builds (useArch is false); the
// batched kernel stands in so kernelSweep compiles.
func archSweep(acc *[64]uint64, xw []uint64, buf []uint64, tau int) {
	sweepBatched(acc, xw, buf, tau)
}
