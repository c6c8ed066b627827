package hashing

import (
	"fmt"
	"math/rand"
	"testing"
)

// testKernel names one τ-row kernel this binary can run on this CPU.
type testKernel struct {
	name  string
	sweep func(acc *[64]uint64, xw []uint64, buf []uint64, tau int)
}

// testKernels lists the kernels to check: the batched Go kernel always,
// and the AVX2 kernel when the build has it and the CPU can run it.
func testKernels() []testKernel {
	ks := []testKernel{{"batched", sweepBatched}}
	if hasAVX2() {
		ks = append(ks, testKernel{"avx2", archSweep})
	}
	return ks
}

// sweepScalar is the kernel contract written as plainly as possible: one
// input word at a time, one row at a time. The kernel tests compare every
// kernel against it.
func sweepScalar(acc *[64]uint64, xw []uint64, buf []uint64, tau int) {
	for i, w := range xw {
		for j := 0; j < tau; j++ {
			acc[j] ^= w & buf[i*tau+j]
		}
	}
}

// randomWords returns n random words.
func randomWords(rng *rand.Rand, n int) []uint64 {
	w := make([]uint64, n)
	for i := range w {
		w[i] = rng.Uint64()
	}
	return w
}

// TestKernelGoldenEquivalence calls every kernel this binary runs
// directly and compares it with sweepScalar, for τ = 1..64 (every
// remainder of the AVX2 kernel's eight-row blocks) and 1 to 37 words
// (every remainder of the batched kernel's groups of four), from a
// random starting accumulator. acc[tau:] must come back untouched. The Checkpointed golden
// tests cover the same kernels end to end against HashPrefix; this test
// pins each one on its own, whichever of them the CPU picks.
func TestKernelGoldenEquivalence(t *testing.T) {
	for _, k := range testKernels() {
		t.Run(k.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(41017))
			for tau := 1; tau <= 64; tau++ {
				for n := 1; n <= 37; n++ {
					xw := randomWords(rng, n)
					buf := randomWords(rng, n*tau)
					var got, want [64]uint64
					copy(got[:], randomWords(rng, 64))
					want = got
					k.sweep(&got, xw, buf, tau)
					sweepScalar(&want, xw, buf, tau)
					if got != want {
						t.Fatalf("τ=%d words=%d: %s kernel disagrees with the scalar loop", tau, n, k.name)
					}
				}
			}
		})
	}
}

// TestKernelSweepAllocs pins zero allocations for every kernel, called
// directly, and for kernelSweep's CPU-picked branch: none may make the
// caller's stack-resident accumulator escape (an indirect call would,
// which is why this test calls the kernels by name, not through
// testKernels' function values).
func TestKernelSweepAllocs(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	const tau, n = 16, 100
	xw := randomWords(rng, n)
	buf := randomWords(rng, n*tau)
	for _, k := range testKernels() {
		t.Run(k.name, func(t *testing.T) {
			allocs := testing.AllocsPerRun(100, func() {
				var acc [64]uint64
				if k.name == "avx2" {
					archSweep(&acc, xw, buf, tau)
				} else {
					sweepBatched(&acc, xw, buf, tau)
				}
				kernelSweep(&acc, xw, buf, tau)
				benchSink ^= acc[0]
			})
			if allocs != 0 {
				t.Fatalf("kernel %s allocates %.1f times per sweep, want 0", k.name, allocs)
			}
		})
	}
}

// BenchmarkKernelSweep is the kernel micro table behind PERF.md: one
// τ-row sweep by kernel, output width τ, and transcript length, over
// pre-materialized interleaved rows, so it isolates the accumulate
// itself. "scalar" is sweepScalar, the baseline the kernels are
// measured against.
func BenchmarkKernelSweep(b *testing.B) {
	kernels := append(testKernels(), testKernel{"scalar", sweepScalar})
	rng := rand.New(rand.NewSource(11))
	for _, tau := range []int{8, 32, 64} {
		for _, bits := range []int{4096, 16384} {
			xw := randomWords(rng, bits/64)
			buf := randomWords(rng, len(xw)*tau)
			for _, k := range kernels {
				b.Run(fmt.Sprintf("tau=%d/bits=%d/%s", tau, bits, k.name), func(b *testing.B) {
					b.ReportAllocs()
					var acc [64]uint64
					for i := 0; i < b.N; i++ {
						k.sweep(&acc, xw, buf, tau)
					}
					benchSink ^= acc[0]
				})
			}
		}
	}
}

var benchSink uint64
