// Package mpic is a Go implementation of the multiparty interactive
// coding schemes of Gelles, Kalai and Ramnarayan, "Efficient Multiparty
// Interactive Coding for Insertions, Deletions and Substitutions"
// (PODC 2019, arXiv:1901.09863).
//
// Given any noiseless multiparty protocol Π with a fixed speaking order
// over an arbitrary connected topology, the library produces a simulation
// of Π that tolerates adversarial insertion, deletion and substitution
// noise with only a constant-factor communication blowup:
//
//   - AlgorithmA tolerates an ε/m fraction of oblivious noise with no
//     pre-shared randomness (m = number of links),
//   - AlgorithmB tolerates ε/(m log m) fully adaptive noise,
//   - AlgorithmC tolerates ε/(m log log m) adaptive noise when the
//     parties pre-share a common random string,
//   - Algorithm1 is the CRS + oblivious-noise base scheme.
//
// # Scenarios and the Runner
//
// A run is described by a typed, composable Scenario — which workload
// over which topology, protected by which scheme, under which noise —
// and executed by a Runner:
//
//	runner := mpic.NewRunner()
//	res, err := runner.Run(ctx, mpic.Scenario{
//	    Topology: mpic.Ring(8),
//	    Workload: mpic.TokenRing(64),
//	    Scheme:   mpic.AlgorithmA,
//	    Noise:    mpic.RandomNoise(0.002),
//	    Seed:     1,
//	})
//
// The Runner holds per-link prefix-hash stores across runs (batch
// drivers stop paying per-run seed materialization), honors context
// cancellation, and executes parameter grids through Runner.RunGrid.
// Per-iteration progress is observable by attaching an Observer to the
// scenario, and per-run arena telemetry through Result.Arena.
//
// # The grid engine
//
// Batch execution goes through one streaming, parallel core: a Grid is a
// list of GridCell scenario specs, and Runner.RunGrid executes them on a
// GOMAXPROCS-bounded worker pool, streaming each completed cell through
// a callback the moment it finishes — a long grid reports (and can be
// checkpointed) as it runs instead of at the end:
//
//	var grid mpic.Grid
//	for _, n := range []int{8, 16} {
//	    for _, rate := range rates {
//	        sc := base
//	        sc.Topology, sc.Noise = mpic.Line(n), mpic.RandomNoise(rate)
//	        grid.Cells = append(grid.Cells, mpic.GridCell{
//	            Key: mpic.GridKey{Rate: rate}, Scenario: sc, Trials: 10})
//	    }
//	}
//	err := runner.RunGrid(ctx, grid, func(res mpic.GridCellResult) {
//	    fmt.Printf("n=%d rate=%g: %d/%d\n", res.Key.N, res.Key.Rate,
//	        res.Cell.Successes, res.Cell.Trials)
//	})
//
// Cell workers are the library's only parallelism: a run steps its
// parties in one sequential loop per round. Parallel execution is
// result-identical to sequential: every trial's seed is a pure function
// of its cell's spec (seed salting is per-cell and deterministic), so
// scheduling never leaks into results. Cells are
// keyed by (n, scheme, rate) — GridKey — which is how streamed,
// shuffled, and resumed runs merge; CollectGrid buffers the results in
// definition order. The experiment harness (internal/experiments) and
// both CLIs (mpicbench -sweep, mpicsim -trials) declare cells and let
// the engine execute them.
//
// # Durable sessions
//
// A grid becomes a durable, observable session through two Grid options.
// Setting Store to a GridStore (FileGridStore, an append-only journal
// that records each completed cell as one checksummed line, is the
// implementation both CLIs and the experiment harness use) checkpoints
// the grid: the engine persists every completed cell the moment it
// finishes, and a re-run restores the persisted cells — streamed first,
// marked Restored — executing only the rest. Stores are keyed by a spec
// fingerprint (Grid.Spec, defaulting to Grid.Fingerprint), so a
// checkpoint written by a different grid is rejected rather than merged.
// Because every trial's seed is a pure function of its cell's spec, a
// resumed grid is bit-identical to an uninterrupted one.
//
// Setting Progress attaches the grid-level progress stream: serialized
// GridProgress events — trial starts, per-iteration ticks, trial
// results, cell completions and restores — built from the same Observer
// hooks single runs use, so very-slow single cells stay observable from
// the inside. NewProgressLog is the ready-made line-per-event sink:
//
//	grid.Store = mpic.NewFileGridStore("session.json")
//	grid.Progress = mpic.NewProgressLog(os.Stderr)
//	err := runner.RunGrid(ctx, grid, sink) // interrupt and re-run freely
//
// See examples/progress for the full loop.
//
// # Fault tolerance
//
// The grid engine contains cell failures instead of letting them take
// the batch down. A panic anywhere inside a cell — protocol code, a
// noise closure, an observer — is recovered into a typed
// *CellPanicError; Grid.Retries gives a failed cell that many extra
// attempts, each run straight away, and because retried attempts
// re-derive the exact same trial seeds, a cell that fails
// transiently and then succeeds is bit-identical to one that succeeded
// first try. Grid.OnCellError selects what an unrecoverable cell does to
// the rest of the grid: FailFast (the default) aborts, QuarantineCells
// finishes the grid around it — failed cells stream with Err set, stay
// out of the session store (a resumed run re-attempts them), and the run
// returns a *GridFailure inventorying them:
//
//	grid.Retries = 2
//	grid.OnCellError = mpic.QuarantineCells
//	err := runner.RunGrid(ctx, grid, sink)
//	var gf *mpic.GridFailure
//	if errors.As(err, &gf) { /* partial success; gf.Report says what failed */ }
//
// The storage layer is hardened the same way: FileGridStore fsyncs every
// append and checksums every record — a record torn by a crash
// mid-append is detected (never half-parsed as truth) and cut off, so
// the session loses at most that cell and re-runs it bit-identically,
// while damage a crash cannot cause is a loud *CorruptCheckpointError.
// A store error aborts the run; re-running it resumes from the journal.
// Both CLIs expose the machinery as -retries (and mpicbench's
// -fail-fast=false), with exit code 3 distinguishing a quarantined
// partial success from a hard failure. The deterministic fault injector
// behind the chaos suite lives in internal/faults.
//
// Stores sharing one file merge rather than clobber each other: an
// flock sidecar serializes access, and every store replays the others'
// appends before adding its own. cmd/mpicserve runs each submitted grid
// as one such durable session on a worker pool and wraps it in a
// long-lived HTTP service — grid specs in, Server-Sent progress events
// out, sessions durable across restarts (package internal/service).
//
// # Network model
//
// By default the network is the paper's synchronous model: every symbol
// sent in round r arrives exactly at the round boundary. Setting
// Scenario.Delay switches the run to a virtual-time discrete-event
// network: each symbol is assigned a flight delay by a DelayModel
// (unit/lockstep, fixed+jitter, lognormal, per-link latency bands — a
// fourth open registry, RegisterDelay), and a deadline synchronizer
// preserves the round abstraction. Round r spans virtual time [r, r+1);
// a symbol that misses its deadline is recorded as a deletion at the
// deadline and, when it finally lands in a silent slot, as an
// out-of-band insertion — timing faults are mapped onto the paper's
// insdel noise model, so the coding schemes absorb stragglers and
// latency spikes exactly as they absorb adversarial noise, with no
// change to the protocol layer.
//
// Scenario.Faults layers a deterministic network-fault schedule on top:
// link outage windows, transient delay spikes, straggler parties, and
// crash-stop/restart parties whose links fall silent for a window and
// then resume (the scheme repairs the gap like any other insdel burst).
// Every decision is a pure site-hashed function of the schedule's seed,
// so a faulty run replays bit-identically from its seeds at any worker
// count — the grid determinism guarantee extends unchanged to timed
// runs. Timed results carry virtual-time metrics in Result.Metrics.Net:
// makespan, late/dropped symbol counts, erasures, and per-link delay
// histograms with p50/p99 quantiles. Lockstep runs (Delay nil or
// LockstepDelay with no Faults) stay on the classic synchronous engine,
// bit-identical to earlier releases, with Metrics.Net nil.
//
//	res, _ := runner.Run(ctx, mpic.Scenario{
//	    Topology: mpic.Clique(8),
//	    Workload: mpic.RandomTraffic(120),
//	    Noise:    mpic.RandomNoise(0.002),
//	    Delay:    mpic.LognormalDelay(0.3),
//	    Faults:   &mpic.NetFaults{OutageRate: 0.01, Stragglers: 1, Crashes: 1},
//	})
//	fmt.Println(res.Metrics.Net.Makespan, res.Metrics.Net.MaxP99())
//
// Every named building block — topology family, workload, noise model,
// delay model — lives in an open registry (RegisterTopology,
// RegisterWorkload, RegisterNoise, RegisterDelay), so external packages
// plug in new ones without touching this module; see examples/customnoise.
//
// Advanced callers can still assemble runs from the underlying pieces
// via NewWorkload, the re-exported option types, and
// RunProtocol(p, params, adv), which runs the coding scheme over a
// caller-built protocol with explicit Params under an Adversary (nil
// for none). A caller-built protocol implements Protocol over its own
// Graph and builds its speaking order with NewSchedule(g, rounds); see
// examples/customproto.
package mpic

import (
	"fmt"

	"mpic/internal/adversary"
	"mpic/internal/baseline"
	"mpic/internal/bitstring"
	"mpic/internal/channel"
	"mpic/internal/core"
	"mpic/internal/graph"
	"mpic/internal/protocol"
)

// Scheme selects one of the paper's coding schemes.
type Scheme = core.Scheme

// The four schemes of the paper (see package doc).
const (
	Algorithm1 = core.Alg1
	AlgorithmA = core.AlgA
	AlgorithmB = core.AlgB
	AlgorithmC = core.AlgC
)

// Result is the outcome of a coded run: success against the noiseless
// reference, communication accounting, and oracle instrumentation.
type Result = core.Result

// Params exposes the full scheme parameterization for advanced use.
type Params = core.Params

// HashMode selects the prefix-hash seed discipline of the meeting-points
// consistency checks; see the core constants for the trade-offs. The zero
// value is HashEpoch — the epoch-refresh fast path — so an unset field
// means the default mode.
type HashMode = core.HashMode

// The two hash modes: epoch-refresh (default — incremental cost, with
// the seed block re-derived every EpochRefresh iterations so collisions
// cannot persist) and the paper-faithful per-iteration reseeding.
const (
	HashEpoch  = core.HashEpoch
	HashLegacy = core.HashLegacy
)

// DefaultEpochRefresh is the default refresh interval R of HashEpoch, in
// iterations (see PERF.md for the sweep behind the value).
const DefaultEpochRefresh = core.DefaultEpochRefresh

// ParseHashMode maps the conventional mode names ("epoch", "legacy";
// empty selects the default) to a HashMode.
func ParseHashMode(s string) (HashMode, error) { return core.ParseHashMode(s) }

// WhiteBoxStats reports the Section 6.1 collision attacker's bookkeeping
// when Scenario.WhiteBoxRate (or core's Options.WhiteBoxRate) was set.
type WhiteBoxStats = core.WhiteBoxStats

// ArenaStats is the runner arena's telemetry — prefix-hash stores drawn
// recycled (hits) or built fresh (misses), and the words of recycled
// capacity. Result.Arena carries a per-run delta.
type ArenaStats = core.ArenaStats

// Protocol is a noiseless multiparty protocol with a fixed speaking
// order; implement it to simulate your own workloads. The aliases below
// re-export everything an implementation needs.
type Protocol = protocol.Protocol

// Protocol-authoring building blocks.
type (
	// Graph is a connected simple topology.
	Graph = graph.Graph
	// Node identifies a party.
	Node = graph.Node
	// Schedule is a fixed speaking order.
	Schedule = protocol.Schedule
	// Transmission is one scheduled bit: From sends to To.
	Transmission = protocol.Transmission
	// View is a party's observations (input + per-link symbols).
	View = protocol.View
	// Link is a directed link, used to address observations.
	Link = channel.Link
	// Symbol is a channel symbol: 0, 1, or Silence.
	Symbol = bitstring.Symbol
)

// Channel symbols.
const (
	// Sym0 is the bit 0.
	Sym0 = bitstring.Sym0
	// Sym1 is the bit 1.
	Sym1 = bitstring.Sym1
	// Silence is the "no message" symbol.
	Silence = bitstring.Silence
)

// NewSchedule builds a speaking order over topology g from per-round
// transmissions. It indexes each directed link's rounds by g's link
// numbering, so g must be the graph the protocol's Graph returns (or one
// with the same edges added in the same order); a run checks this, and
// that every transmission uses a link of g at most once per round.
func NewSchedule(g *Graph, rounds [][]Transmission) *Schedule {
	return protocol.NewSchedule(g, rounds)
}

// NewGraph returns an empty topology on n nodes; add links with AddEdge
// and finish with Validate.
func NewGraph(n int) *Graph { return graph.New(n) }

// BaselineResult is the outcome of an uncoded or naive-FEC run.
type BaselineResult = baseline.Result

// RunProtocol executes a coded simulation of a caller-provided protocol
// with explicit parameters — the advanced entry point below Scenario.
func RunProtocol(p Protocol, params Params, adv Adversary) (*Result, error) {
	return core.Run(core.Options{Protocol: p, Params: params, Adversary: adv})
}

// Adversary is the channel-noise interface (see the adversary
// subpackage's strategies).
type Adversary = adversary.Adversary

// ParamsFor returns the paper's parameterization of a scheme for a
// topology.
func ParamsFor(s Scheme, g *graph.Graph) Params { return core.ParamsFor(s, g) }

// ParseScheme maps the conventional short scheme names ("1", "A", "B",
// "C", case-insensitive) to Scheme values — the string bridge the
// command-line tools share.
func ParseScheme(s string) (Scheme, error) {
	switch s {
	case "1":
		return Algorithm1, nil
	case "A", "a":
		return AlgorithmA, nil
	case "B", "b":
		return AlgorithmB, nil
	case "C", "c":
		return AlgorithmC, nil
	default:
		return 0, fmt.Errorf("mpic: unknown scheme %q (want 1, A, B, or C)", s)
	}
}

// RunUncodedProtocol runs a caller-provided protocol uncoded under an
// explicit adversary.
func RunUncodedProtocol(p Protocol, adv Adversary) (*BaselineResult, error) {
	return baseline.RunUncoded(p, adv)
}

// RunNaiveFECProtocol runs a caller-provided protocol with repetition
// coding under an explicit adversary.
func RunNaiveFECProtocol(p Protocol, adv Adversary, rep int) (*BaselineResult, error) {
	return baseline.RunNaiveFEC(p, adv, rep)
}

// NewFixedDeletions builds an adversary that skips the first `skip`
// payload bits on the directed link from → to and then deletes the next
// count of them — a fixed absolute budget useful for comparing schemes
// of different total communication (skip lets the attack bypass, e.g.,
// the randomness-exchange preamble).
func NewFixedDeletions(from, to int, skip, count int) Adversary {
	a := adversary.NewFixedDeletions(channel.Link{From: graph.Node(from), To: graph.Node(to)}, count)
	a.Skip = skip
	return a
}
