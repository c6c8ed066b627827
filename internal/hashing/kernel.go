package hashing

import "fmt"

// A kernel is a τ-row accumulate: XOR every word of xw, masked by the
// matching interleaved seed words, into the τ row accumulators. buf
// holds the interleaved rows (buf[i*tau+j] is word i of row j) for at
// least len(xw) words; every word of xw is complete — the caller masks
// the sweep's final partial word itself, so kernels never see a tail
// mask. acc[tau:] is never touched.
//
// Dispatch is a switch over a small id rather than a function pointer:
// an indirect call would force the caller's stack-resident accumulator
// array to escape (one heap allocation per hash), while direct calls
// behind the switch keep the zero-steady-state-allocation pins intact.
type kernelID int

const (
	kernelReference kernelID = iota
	kernelBatched
	kernelArch // the GOARCH vector kernel (avx2), when available
)

// kernelImpl pairs a kernel id with its dispatch name.
type kernelImpl struct {
	name string
	id   kernelID
}

// kernels lists the kernels compiled into this binary and usable on this
// CPU, best first: the arch-specific vector kernel (when the build and
// the CPU both support it), then the portable word-batched kernel, then
// the reference scalar sweep.
var kernels []kernelImpl

// activeKernel is the kernel every cached evaluator dispatches through.
// Selected once at init (overridable via SetKernel); not synchronized —
// see SetKernel.
var activeKernel kernelImpl

func init() {
	kernels = append(archKernels(),
		kernelImpl{"batched", kernelBatched},
		kernelImpl{"reference", kernelReference},
	)
	activeKernel = kernels[0]
}

// Kernels returns the dispatch names of every hash kernel available in
// this binary on this CPU, preferred first. The first entry is the
// default selection.
func Kernels() []string {
	out := make([]string, len(kernels))
	for i, k := range kernels {
		out[i] = k.name
	}
	return out
}

// Kernel returns the name of the kernel currently in use.
func Kernel() string { return activeKernel.name }

// SetKernel selects the τ-row accumulate kernel by name ("avx2",
// "batched", "reference" — see Kernels for what this binary offers).
// Every kernel is bit-identical on every input; the switch exists for
// the kernel tests, debugging (force "reference" to take the golden
// oracle's exact path) and benchmarking. Not safe to call concurrently
// with hashing — switch kernels between runs, not during them.
func SetKernel(name string) error {
	for _, k := range kernels {
		if k.name == name {
			activeKernel = k
			return nil
		}
	}
	return fmt.Errorf("hashing: unknown kernel %q (available: %v)", name, Kernels())
}

// kernelSweep dispatches a full-word sweep through the active kernel.
func kernelSweep(acc *[64]uint64, xw []uint64, buf []uint64, tau int) {
	if len(xw) == 0 {
		return
	}
	switch activeKernel.id {
	case kernelArch:
		archSweep(acc, xw, buf, tau)
	case kernelBatched:
		sweepBatched(acc, xw, buf, tau)
	default:
		sweepReference(acc, xw, buf, tau)
	}
}

// sweepReference is the scalar kernel every PR before this one shipped:
// one input word at a time, one row at a time. It is the dispatchable
// twin of the per-word loop the golden oracle (HashPrefix) runs and the
// baseline the kernel micro-benchmarks measure against.
func sweepReference(acc *[64]uint64, xw []uint64, buf []uint64, tau int) {
	for i, w := range xw {
		for j, sw := range buf[i*tau : i*tau+tau] {
			acc[j] ^= w & sw
		}
	}
}

// sweepBatched is the portable word-batched kernel: four input words per
// pass, their four seed rows combined into the accumulators in one
// traversal. The row accumulators are loaded and stored once per four
// words instead of once per word, which is where the scalar kernel burns
// its time at small τ; the four AND/XOR chains are independent, so the
// compiler can keep them in flight together. This is the best kernel on
// builds without the arch-specific assembly (purego, or GOARCHes without
// an implementation).
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
