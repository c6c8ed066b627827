// Package faults is a deterministic, seed-driven fault injector for the
// grid engine's robustness tests: every failure decision — should this
// Save error, should this cell panic, and at which iteration — is a pure
// function of a seed and the operation's coordinates, so a chaos
// run is reproducible bit for bit from its seed, exactly like the
// library's adversarial channel noise is reproducible from a scenario
// seed. No global state, no time, no math/rand.
//
// The package deliberately does not import the root mpic package: the
// store decorator is generic over the cell type (FaultyStore), which
// keeps faults importable from in-package tests of mpic itself (where an
// mpic import would be a cycle) as well as from external test packages.
//
// Three injection surfaces cover the host failure modes the engine must
// tolerate:
//
//   - FaultyStore decorates any Load/Save checkpoint store with injected
//     I/O errors and torn writes (a Save that reports success
//     but leaves corrupt bytes behind, via the Tear hook).
//   - CellPlan builds per-cell observer hooks that make worker cells
//     panic mid-run on a deterministic schedule.
//   - Plan-free primitives (Roll, Pick) for tests that schedule their
//     own faults.
package faults

import "mpic/internal/detrand"

// Roll returns a uniform value in [0, 1), deterministic in
// (seed, site, n). A fault with probability p fires iff
// Roll(seed, site, n) < p. It is internal/detrand's Roll keyed by the
// label's site hash, re-exported so chaos tests keep a single import.
func Roll(seed int64, site string, n uint64) float64 {
	return detrand.Roll(seed, detrand.NewSite(site), n)
}

// Pick returns a uniform value in [0, max), deterministic in
// (seed, site, n). max must be positive.
func Pick(seed int64, site string, n uint64, max int) int {
	return detrand.Pick(seed, detrand.NewSite(site), n, max)
}
