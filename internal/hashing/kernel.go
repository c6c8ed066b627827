package hashing

// useArch is fixed once at start-up: whether this binary has the arch
// vector kernel (AVX2) and this CPU can run it.
var useArch = hasAVX2()

// kernelSweep is the τ-row accumulate: it XORs every word of xw, masked
// by the matching interleaved seed words, into the τ row accumulators.
// buf holds the interleaved rows (buf[i*tau+j] is word i of row j) for
// at least len(xw) words; every word of xw is complete — the caller
// masks the sweep's final partial word itself, so kernels never see a
// tail mask. acc[tau:] is never touched.
//
// It runs the AVX2 kernel when useArch, else the batched Go kernel; the
// two are bit-identical on every input. The choice is a branch on a
// package variable, not a function pointer: an indirect call would force
// the caller's stack-resident accumulator array to escape (one heap
// allocation per hash).
func kernelSweep(acc *[64]uint64, xw []uint64, buf []uint64, tau int) {
	if len(xw) == 0 {
		return
	}
	if useArch {
		archSweep(acc, xw, buf, tau)
		return
	}
	sweepBatched(acc, xw, buf, tau)
}

// sweepBatched is the portable word-batched kernel: four input words per
// pass, their four seed rows combined into the accumulators in one
// traversal. The row accumulators are loaded and stored once per four
// words instead of once per word, which is where a word-at-a-time loop
// burns its time at small τ; the four AND/XOR chains are independent, so
// the compiler can keep them in flight together. This is the kernel of
// builds without the arch-specific assembly (purego, or GOARCHes without
// an implementation) and of amd64 CPUs without AVX2.
func sweepBatched(acc *[64]uint64, xw []uint64, buf []uint64, tau int) {
	a := acc[:tau]
	i := 0
	for ; i+4 <= len(xw); i += 4 {
		w0, w1, w2, w3 := xw[i], xw[i+1], xw[i+2], xw[i+3]
		base := i * tau
		r0 := buf[base : base+tau]
		r1 := buf[base+tau : base+2*tau]
		r2 := buf[base+2*tau : base+3*tau]
		r3 := buf[base+3*tau : base+4*tau]
		for j := range a {
			a[j] ^= w0&r0[j] ^ w1&r1[j] ^ w2&r2[j] ^ w3&r3[j]
		}
	}
	for ; i < len(xw); i++ {
		w := xw[i]
		for j, sw := range buf[i*tau : i*tau+tau] {
			a[j] ^= w & sw
		}
	}
}
