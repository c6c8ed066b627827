// Package hashing implements the randomness substrates of the coding
// schemes: the inner-product hash family of Definition 2.2, δ-biased
// pseudorandom strings in the style of Naor–Naor / AGHP (Lemma 2.5), and
// seed streams addressing per-(iteration, link, slot) seed blocks.
//
// # Collision bounds under seed reuse (Lemma 2.3 and epoch refresh)
//
// With fresh seeds every iteration (SeedLayout.Offset, the paper's
// layout), each of the C = iterations × links × 3 hash comparisons
// collides on unequal inputs independently with probability at most
// 2^-τ + δ, so a union bound — Lemma 2.3 — caps the probability of any
// spurious agreement during the run at C·(2^-τ + δ).
//
// Reusing one rewind-stable seed block (SeedLayout.EpochOffset at epoch
// 0) for the prefix slots across all iterations is what lets the
// incremental evaluator's (Checkpointed's) partial accumulators survive
// between checks. The price is persistence: a pair of divergent prefixes
// that collides under the stable seed collides at *every* subsequent check
// until one side's prefix changes, so collision events are no longer
// independent across iterations and the union bound degrades from "per
// check" to "per distinct compared pair" — a weaker guarantee when the
// meeting-points counters revisit the same pair many times.
//
// Epoch refresh restores a quantitative bound. Re-deriving the stable
// block every R iterations (SeedLayout.EpochOffset; Checkpointed.SetBlock
// rebases the store at Θ(|T|) for one post-refresh sweep, amortized
// Θ(|T|/R) per iteration) makes any colliding pair persist for at most R
// consecutive checks: within an epoch the seed is fixed, across epochs
// the seeds are distinct blocks of the δ-biased stream, so collisions in
// different epochs are (δ-close to) independent. Grouping the C checks
// into ⌈C/R⌉ epoch-pair classes, the probability that any class ever
// collides is at most C·(2^-τ + δ) exactly as in Lemma 2.3 — but a
// single bad event now taints at most R checks instead of the whole run,
// so the expected number of corrupted checks is bounded by
// R·C·(2^-τ + δ). Equivalently: to recover the fresh-seed bound on
// corrupted checks, grow the output length from τ to τ + log₂R. The
// perf-optimal default R = 256 (see core.DefaultEpochRefresh) spends
// log₂256 = 8 bits — as much as Alg1/A's default τ, so at default
// parameters the refresh acts as a persistence cap (collisions self-heal
// within R checks instead of surviving the run) rather than a restored
// union bound; R ≤ 2^(τ-3), or Algorithm B's τ = Θ(log m), keeps the
// quantitative bound too. The parameters are exposed (τ via
// InnerProductHash.Tau, R via the caller's refresh interval, δ via the
// AGHP source's stream extent — see EpochsFit) so harnesses can check
// the bound for their own configurations.
//
// # Kernel dispatch
//
// Checkpointed sweeps its interleaved seed rows through a τ-row kernel
// picked once at process start from the CPU: the AVX2 kernel on amd64
// CPUs that support it (detected at runtime via CPUID/XGETBV, so the same
// binary runs on pre-AVX2 silicon), else the portable 4-way word-batched
// Go kernel (the kernel of every other GOARCH). Both kernels are
// bit-identical on every input — the kernel tests pin each against a
// scalar loop, and the golden tests pin Checkpointed against the
// reference evaluator HashPrefix — so the pick never affects protocol
// transcripts, only throughput. The counter hash (HashUint) reads one
// input word and needs no kernel.
//
// Building with -tags purego excludes the assembly entirely (auditing,
// or a GOASM-hostile toolchain), so the batched kernel runs everywhere;
// `make crossbuild` runs the hashing and core tests that way. To debug a
// suspected kernel miscompare, compare Checkpointed against HashPrefix,
// the golden oracle, which uses no kernel at all.
package hashing

// gf64Poly is the reduction polynomial x^64 + x^4 + x^3 + x + 1 for
// GF(2^64), represented by its low 64 bits.
const gf64Poly uint64 = 0x1b

// gfMul64 multiplies two elements of GF(2^64) (carry-less multiplication
// followed by reduction). The product is formed over 4-bit windows of b,
// most significant first: a table of the 16 carry-less products a·k, then
// one 128-bit shift-by-4 and table xor per window, with no branch on the
// bits of either operand.
func gfMul64(a, b uint64) uint64 {
	// tlo[k], thi[k] hold the 67-bit carry-less product a·k; a·2j is
	// a·j shifted left once and a·(2j+1) = a·2j ^ a.
	var tlo, thi [16]uint64
	tlo[1] = a
	for k := 2; k < 16; k += 2 {
		tlo[k] = tlo[k/2] << 1
		thi[k] = thi[k/2]<<1 | tlo[k/2]>>63
		tlo[k+1] = tlo[k] ^ a
		thi[k+1] = thi[k]
	}
	var lo, hi uint64
	for i := 60; i >= 0; i -= 4 {
		hi = hi<<4 | lo>>60
		lo <<= 4
		k := (b >> uint(i)) & 0xf
		lo ^= tlo[k]
		hi ^= thi[k]
	}
	return gfReduce(lo, hi)
}

// gfSqr64 squares x in GF(2^64). Squaring is linear over GF(2): the
// carry-less square moves bit k of x to bit 2k, then reduces.
func gfSqr64(x uint64) uint64 {
	return gfReduce(spread32(x), spread32(x>>32))
}

// spread32 moves bit k of the low 32 bits of x to bit 2k.
func spread32(x uint64) uint64 {
	x &= 0xffffffff
	x = (x | x<<16) & 0x0000ffff0000ffff
	x = (x | x<<8) & 0x00ff00ff00ff00ff
	x = (x | x<<4) & 0x0f0f0f0f0f0f0f0f
	x = (x | x<<2) & 0x3333333333333333
	return (x | x<<1) & 0x5555555555555555
}

// gfReduce reduces the 128-bit carry-less product hi·x^64 + lo modulo
// x^64 + x^4 + x^3 + x + 1. Folding the high half twice suffices because
// the reduction polynomial's non-leading part fits in 5 bits.
func gfReduce(lo, hi uint64) uint64 {
	for hi != 0 {
		h := hi
		hi = 0
		lo ^= h ^ (h << 1) ^ (h << 3) ^ (h << 4)
		hi ^= (h >> 63) ^ (h >> 61) ^ (h >> 60)
	}
	return lo
}
