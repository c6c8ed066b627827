//go:build amd64 && !purego

package hashing

// sweepAVX2 is the AVX2 τ-row accumulate: rows are processed in blocks
// of eight (two 256-bit register-resident accumulators), each input word
// broadcast across the lanes once and ANDed against the interleaved seed
// stride. Implemented in kernel_amd64.s; requires hasAVX2().
//
//go:noescape
func sweepAVX2(acc *[64]uint64, xw *uint64, n int, buf *uint64, tau int)

// cpuid executes CPUID with the given leaf/subleaf (kernel_amd64.s).
func cpuid(eaxIn, ecxIn uint32) (eax, ebx, ecx, edx uint32)

// xgetbv0 reads extended control register XCR0 (kernel_amd64.s). Only
// valid once CPUID has reported OSXSAVE.
func xgetbv0() (eax, edx uint32)

// hasAVX2 reports whether both the CPU and the OS support AVX2: OSXSAVE
// and AVX in leaf 1 ECX, XMM+YMM state enabled in XCR0, and AVX2 in
// leaf 7 EBX. The XCR0 check matters — a kernel that does not save YMM
// state makes VEX instructions fault even on AVX2 silicon.
func hasAVX2() bool {
	maxID, _, _, _ := cpuid(0, 0)
	if maxID < 7 {
		return false
	}
	_, _, c1, _ := cpuid(1, 0)
	const osxsave = 1 << 27
	const avx = 1 << 28
	if c1&osxsave == 0 || c1&avx == 0 {
		return false
	}
	xcr0, _ := xgetbv0()
	if xcr0&0x6 != 0x6 { // XMM and YMM state both OS-managed
		return false
	}
	_, b7, _, _ := cpuid(7, 0)
	return b7&(1<<5) != 0
}

// archSweep runs the AVX2 kernel; kernelSweep calls it only when
// hasAVX2() and never with an empty xw.
func archSweep(acc *[64]uint64, xw []uint64, buf []uint64, tau int) {
	sweepAVX2(acc, &xw[0], len(xw), &buf[0], tau)
}
