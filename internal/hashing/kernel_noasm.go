//go:build purego || !amd64

package hashing

// archKernels returns no vector kernels: either the build excluded the
// assembly (the purego tag — the debugging and auditing escape hatch) or
// this GOARCH has no implementation yet. The portable word-batched
// kernel is the best available on these builds.
func archKernels() []kernelImpl { return nil }

// archSweep is never selected on these builds (archKernels registers no
// kernelArch entry); the batched kernel stands in so dispatch compiles.
func archSweep(acc *[64]uint64, xw []uint64, buf []uint64, tau int) {
	sweepBatched(acc, xw, buf, tau)
}
