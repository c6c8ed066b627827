// Package core implements the paper's coding schemes: the four-phase
// noise-resilient simulation of Algorithm 1 and its three instantiations —
// Algorithm A (no CRS, oblivious noise, ε/m resilience), Algorithm B
// (no CRS, non-oblivious noise, ε/(m log m)), and Algorithm C (CRS,
// non-oblivious noise, ε/(m log log m)).
package core

import (
	"fmt"
	"math"

	"mpic/internal/graph"
)

// Scheme selects one of the paper's coding schemes.
type Scheme int

const (
	// Alg1 is Algorithm 1: pre-shared CRS, oblivious adversary, K = m.
	Alg1 Scheme = iota + 1
	// AlgA is Algorithm A: randomness exchange instead of a CRS,
	// oblivious adversary, K = m.
	AlgA
	// AlgB is Algorithm B: randomness exchange, non-oblivious adversary,
	// K = m·log m and Θ(log m)-bit hashes.
	AlgB
	// AlgC is Algorithm C: pre-shared CRS, non-oblivious adversary,
	// K = m·log log m (Appendix B).
	AlgC
)

// String implements fmt.Stringer.
func (s Scheme) String() string {
	switch s {
	case Alg1:
		return "Algorithm1"
	case AlgA:
		return "AlgorithmA"
	case AlgB:
		return "AlgorithmB"
	case AlgC:
		return "AlgorithmC"
	default:
		return "unknown"
	}
}

// RandMode says where hash seeds come from.
type RandMode int

const (
	// RandCRS gives every link a shared seed stream derived from a common
	// random string the adversary never sees (Algorithm 1 / C).
	RandCRS RandMode = iota + 1
	// RandExchange makes each pair of parties exchange a short seed over
	// the noisy link, protected by the error-correcting code
	// (Algorithm 5; used by Algorithms A and B).
	RandExchange
)

// SeedKind selects how the short per-link seed expands into the long seed
// stream.
type SeedKind int

const (
	// SeedPRF expands by strong integer mixing — the fast default,
	// standing in for a uniform stream (the schemes' analysis assumes
	// δ-biased seeds; a uniform stream is the δ = 0 case).
	SeedPRF SeedKind = iota + 1
	// SeedAGHP expands through the δ-biased AGHP powering construction of
	// Lemma 2.5 — the paper-faithful choice, used in the δ-bias
	// experiments.
	SeedAGHP
)

// HashMode selects how the two per-link transcript-prefix hashes of the
// meeting-points check draw their seeds.
type HashMode int

const (
	// HashEpoch — the zero value, and the default — routes the prefix
	// hashes through rewind-aware incremental checkpoints
	// (hashing.Checkpointed) whose seed block is re-derived every
	// EpochRefresh iterations. Per-iteration hash cost is Θ(transcript
	// growth) plus an amortized Θ(|T|/R) refresh sweep, and a colliding
	// prefix pair persists for at most R consecutive checks — the union
	// bound of Lemma 2.3 degrades by a factor ≤ R (equivalently, τ+log₂R
	// output bits restore it; see the hashing package doc).
	HashEpoch HashMode = iota
	// HashLegacy draws fresh prefix-hash seeds every iteration, so each
	// iteration re-sweeps the whole transcript — the paper-faithful
	// Θ(|T|) path, bit-identical to the original engine for a fixed
	// CRSKey. The escape hatch when exact reproducibility against old
	// recorded runs matters more than wall-clock.
	HashLegacy
)

// String implements fmt.Stringer.
func (m HashMode) String() string {
	switch m {
	case HashEpoch:
		return "epoch"
	case HashLegacy:
		return "legacy"
	default:
		return "unknown"
	}
}

// ParseHashMode maps the conventional mode names to a HashMode: "epoch"
// (or empty — the default) and "legacy". Names are the String()
// spellings, so parse∘print round-trips.
func ParseHashMode(s string) (HashMode, error) {
	switch s {
	case "", "epoch":
		return HashEpoch, nil
	case "legacy":
		return HashLegacy, nil
	default:
		return 0, fmt.Errorf("core: unknown hash mode %q (want epoch or legacy)", s)
	}
}

// DefaultEpochRefresh is the default seed-refresh interval R in
// iterations, picked from the R-axis benchmark sweep in PERF.md: 256 is
// the smallest R whose amortized Θ(|T|/R) refresh sweep stays within 10%
// of a never-refreshed run (R ≥ budget) at the 32·|Π| budget (the table
// reads +5% at R=256, +10% at R=128 and +52% at R=32). The fidelity price
// is log₂256 = 8 bits of the Lemma 2.3 union bound — as large as Alg1/A's
// default HashBits, so at default τ the refresh is a persistence *cap* (a
// colliding pair self-heals within ≤ R checks instead of surviving the
// run, which is what turns the never-refreshed permanent-failure
// pathology into bounded extra iterations) rather than a restored union
// bound. Callers that want the bound back set EpochRefresh ≤
// 2^(HashBits-3) (e.g. R=32 at τ=8 costs 1/8 of a corrupted check per
// collision) or raise HashBits by log₂R; Algorithm B's τ = Θ(log m)
// absorbs the default R at realistic sizes. See the hashing package doc
// for the full derivation.
const DefaultEpochRefresh = 256

// Params fully determines a coding-scheme instance. Zero values are
// filled with defaults by Validate.
type Params struct {
	// ChunkBits is the communication budget per chunk (the paper's 5K).
	ChunkBits int
	// HashBits is the hash output length τ.
	HashBits int
	// IterFactor bounds iterations at IterFactor·|Π| (the paper runs
	// exactly 100·|Π|).
	IterFactor int
	// Randomness selects CRS vs randomness exchange.
	Randomness RandMode
	// SeedKind selects the seed-stream expansion.
	SeedKind SeedKind
	// RSBlockN and RSBlockK parameterize the randomness-exchange code.
	RSBlockN, RSBlockK int
	// CRSKey seeds the common random string (CRS modes) and the parties'
	// private randomness; runs with equal keys are reproducible.
	CRSKey int64
	// EarlyStop lets the harness halt once the oracle sees a fully
	// consistent network that has simulated all of Π. The paper-faithful
	// mode (false) always runs IterFactor·|Π| iterations.
	EarlyStop bool
	// Oracle enables ground-truth instrumentation (hash-collision
	// detection, potential snapshots). Costs time, changes nothing
	// observable to the parties.
	Oracle bool
	// DisableFlagPassing ablates the flag-passing phase (experiment E-F7).
	DisableFlagPassing bool
	// DisableRewind ablates the rewind phase (experiment E-F7).
	DisableRewind bool
	// HashMode selects the prefix-hash seed discipline. The zero value is
	// HashEpoch — incremental checkpoints with the seed block refreshed
	// every EpochRefresh iterations — which is the default for every run:
	// Θ(growth) per-iteration hash cost with collision persistence
	// bounded to R checks. HashLegacy restores the paper's
	// fresh-seeds-every-iteration Θ(|T|) path, bit-identical to previous
	// releases for a fixed CRSKey. See the HashMode constants for the full
	// trade-off.
	HashMode HashMode
	// EpochRefresh is the seed-refresh interval R (iterations) for
	// HashEpoch; 0 selects DefaultEpochRefresh. Smaller R tightens the
	// union bound (a collision persists ≤ R checks) at a higher amortized
	// Θ(|T|/R) re-sweep cost; the R-axis table in PERF.md quantifies the
	// trade-off. An R at least the iteration budget never refreshes: the
	// whole run hashes over the stable epoch-0 block. Ignored by
	// HashLegacy.
	EpochRefresh int
}

// Log2Ceil returns ⌈log₂ n⌉ for n ≥ 1 (0 for n ≤ 1). Exposed because the
// experiment harness reports noise levels in terms of m, log m, and
// log log m.
func Log2Ceil(n int) int {
	if n <= 1 {
		return 0
	}
	return int(math.Ceil(math.Log2(float64(n))))
}

func log2Ceil(n int) int { return Log2Ceil(n) }

// ParamsFor returns the paper's parameterization of the given scheme on
// topology g.
func ParamsFor(s Scheme, g *graph.Graph) Params {
	m := g.M()
	if m < 1 {
		m = 1
	}
	p := Params{
		IterFactor: 100,
		RSBlockN:   31,
		RSBlockK:   11,
		EarlyStop:  true,
		Oracle:     true,
	}
	logm := log2Ceil(m)
	if logm < 1 {
		logm = 1
	}
	loglogm := log2Ceil(logm + 1)
	if loglogm < 1 {
		loglogm = 1
	}
	switch s {
	case Alg1:
		p.ChunkBits = 5 * m
		p.HashBits = 8
		p.Randomness = RandCRS
		p.SeedKind = SeedPRF
	case AlgA:
		p.ChunkBits = 5 * m
		p.HashBits = 8
		p.Randomness = RandExchange
		p.SeedKind = SeedPRF
	case AlgB:
		p.ChunkBits = 5 * m * logm
		p.HashBits = maxInt(8, 2*logm)
		p.Randomness = RandExchange
		p.SeedKind = SeedPRF
	case AlgC:
		p.ChunkBits = 5 * m * loglogm
		p.HashBits = maxInt(8, 2*loglogm)
		p.Randomness = RandCRS
		p.SeedKind = SeedPRF
	}
	return p
}

// Validate fills defaults and rejects inconsistent parameters.
func (p *Params) Validate() error {
	if p.ChunkBits <= 0 {
		return fmt.Errorf("core: ChunkBits must be positive, got %d", p.ChunkBits)
	}
	if p.HashBits <= 0 || p.HashBits > 64 {
		return fmt.Errorf("core: HashBits must be in 1..64, got %d", p.HashBits)
	}
	if p.IterFactor <= 0 {
		p.IterFactor = 100
	}
	if p.Randomness == 0 {
		p.Randomness = RandCRS
	}
	if p.SeedKind == 0 {
		p.SeedKind = SeedPRF
	}
	if p.RSBlockN == 0 {
		p.RSBlockN, p.RSBlockK = 31, 11
	}
	if p.RSBlockK <= 0 || p.RSBlockK >= p.RSBlockN || p.RSBlockN > 255 {
		return fmt.Errorf("core: invalid RS block (%d,%d)", p.RSBlockN, p.RSBlockK)
	}
	if p.HashMode < HashEpoch || p.HashMode > HashLegacy {
		return fmt.Errorf("core: invalid HashMode %d", int(p.HashMode))
	}
	if p.EpochRefresh < 0 {
		return fmt.Errorf("core: EpochRefresh must be non-negative, got %d", p.EpochRefresh)
	}
	if p.EpochRefresh == 0 {
		p.EpochRefresh = DefaultEpochRefresh
	}
	return nil
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}
