// Package experiments defines the reproduction experiments: the
// empirical regeneration of the paper's Table 1 and the figure-style
// experiments validating Theorems 1.1/1.2 and the key lemmas
// (potential growth, hash-collision bounds, rewind-wave latency,
// δ-biased seeding, randomness-exchange protection).
//
// Every coded run goes through the public Scenario/Runner API: each
// experiment declares its measured cells as mpic.GridCell specs and a
// single package-wide mpic.Runner executes them through the streaming
// parallel grid engine (Runner.RunGrid) — the same code path external
// users batch experiments with. One arena serves the whole package, so
// successive tables reuse the per-link hash buffers, and per-figure code
// reduces to cell specs plus row formatting.
package experiments

import (
	"context"
	"crypto/sha256"
	"fmt"
	"math/rand"
	"path/filepath"
	"strings"

	"mpic"
	"mpic/internal/adversary"
	"mpic/internal/channel"
	"mpic/internal/core"
	"mpic/internal/graph"
	"mpic/internal/protocol"
)

// Config scopes an experiment run.
type Config struct {
	// Trials is the number of repetitions per measured cell. Zero means
	// the default, 5; Quick caps either at 3. Run and RunAll reject a
	// negative count.
	Trials int
	// Seed makes runs reproducible.
	Seed int64
	// Quick shrinks sizes and trial counts for use inside benchmarks.
	Quick bool
	// Checkpoint, when non-empty, is a directory of durable grid
	// sessions: every experiment grid persists its completed cells there
	// (one fingerprint-named file per grid, see mpic.FileGridStore) and
	// restores them on the next run with the same Config — an
	// interrupted `-experiment all` resumes the tables it finished
	// instead of restarting from zero. Restored cells are bit-identical
	// to re-run ones (the engine's determinism guarantee), so
	// checkpointed and fresh tables render the same rows. Grids that
	// keep per-trial trajectories (KeepResults) persist those too, so
	// the rewind-wave/potential/rounds tables resume like the rest.
	Checkpoint string
	// Retries gives every failed grid cell that many extra attempts,
	// each run at once (see mpic.Grid.Retries); retried cells are
	// bit-identical to first-try ones, so the tables are unaffected.
	// Experiments always fail fast once the budget is spent — a table
	// with quarantined holes would not be a table.
	Retries int
}

// validate rejects a configuration Run and RunAll cannot honour.
func (c Config) validate() error {
	if c.Trials < 0 {
		return fmt.Errorf("experiments: Config.Trials is %d; want a positive count, or 0 for the default", c.Trials)
	}
	return nil
}

func (c Config) trials() int {
	n := c.Trials
	if n == 0 {
		n = 5
	}
	if c.Quick && n > 3 {
		return 3
	}
	return n
}

// sharedRunner executes every experiment cell; one arena for the whole
// package amortizes per-run seed materialization across tables.
var sharedRunner = mpic.NewRunner()

// trialSeedStep is the historical per-trial seed stride of the harness.
const trialSeedStep = 7907

// Table is a formatted experiment result.
type Table struct {
	ID string
	// Name is the registry key that produced the table (set by Run and
	// RunAll), so artefact consumers can re-run a single experiment.
	Name   string `json:",omitempty"`
	Title  string
	Header []string
	Rows   [][]string
	Notes  []string
}

// Markdown renders the table as GitHub markdown.
func (t *Table) Markdown() string {
	var b strings.Builder
	fmt.Fprintf(&b, "### %s — %s\n\n", t.ID, t.Title)
	b.WriteString("| " + strings.Join(t.Header, " | ") + " |\n")
	b.WriteString("|" + strings.Repeat("---|", len(t.Header)) + "\n")
	for _, row := range t.Rows {
		b.WriteString("| " + strings.Join(row, " | ") + " |\n")
	}
	for _, n := range t.Notes {
		fmt.Fprintf(&b, "\n*%s*\n", n)
	}
	return b.String()
}

// workload builds the standard generic workload for an experiment: the
// Random protocol over the given topology with enough rounds to yield a
// meaningful number of chunks.
func workload(g *graph.Graph, seed int64, quick bool) protocol.Protocol {
	rounds := workloadRounds(g.N(), quick)
	return protocol.NewRandom(g, rounds, 0.5, seed, nil)
}

func workloadRounds(n int, quick bool) int {
	if quick {
		return 12 * n
	}
	return 40 * n
}

// workloadSpec is workload as a scenario spec: the builder receives each
// trial's seed from the sweep, reproducing the per-trial protocols the
// harness has always measured.
func workloadSpec(n int, quick bool) mpic.WorkloadSpec {
	return mpic.WorkloadSpec{
		Rounds: workloadRounds(n, quick),
		Build: func(g *mpic.Graph, rounds int, seed int64) (mpic.Protocol, error) {
			return protocol.NewRandom(g, rounds, 0.5, seed, nil), nil
		},
	}
}

// cellScenario is the base scenario of a measured cell. The tables pin
// HashMode to the paper-faithful legacy path: they exist to validate the
// paper's claims, and those claims lean on Lemma 2.3's fresh
// per-iteration seeds — under the stable-seed modes a landed collision
// persists up to EpochRefresh checks, which visibly strengthens the
// seed-aware E-F12 attacker and shifts every noisy trajectory. Pinning
// keeps the rows comparable across the artefact history; the epoch
// default's own numbers live in the Go benchmarks (PERF.md PR 9).
func cellScenario(scheme core.Scheme, g *graph.Graph, noise mpic.NoiseSpec, cfg Config, iterFactor int) mpic.Scenario {
	return mpic.Scenario{
		Topology:   mpic.GraphTopology(g),
		Workload:   workloadSpec(g.N(), cfg.Quick),
		Scheme:     scheme,
		Noise:      noise,
		Seed:       cfg.Seed,
		IterFactor: iterFactor,
		HashMode:   mpic.HashLegacy,
	}
}

// adversaryRate is a small alias used by the baseline comparisons.
func adversaryRate(rate float64, rng *rand.Rand) adversary.Adversary {
	return adversary.NewRandomRate(rate, rng)
}

// burstOn builds a banked-budget burst on link (u, v) that fires from
// one-third into the run.
func burstOn(u, v graph.Node, schedRounds int, rate float64) adversary.Adversary {
	return adversary.NewBurst(channel.Link{From: u, To: v}, schedRounds, 1<<30, rate)
}

// gridCell wraps a scenario as one measured grid point: cfg.trials()
// seeds at the harness's historical per-trial stride.
func gridCell(base mpic.Scenario, cfg Config) mpic.GridCell {
	return mpic.GridCell{Scenario: base, Trials: cfg.trials(), SeedStep: trialSeedStep}
}

// oneShot wraps a scenario as a single-run grid point (trial 0 only) —
// the cells of experiments that inspect one run's trajectory.
func oneShot(base mpic.Scenario) mpic.GridCell {
	return mpic.GridCell{Scenario: base, Trials: 1, SeedStep: trialSeedStep}
}

// noiseCell builds the standard measured cell — a scheme over a topology
// under a registered noise model at a rate.
func noiseCell(scheme core.Scheme, g *graph.Graph, noiseKind string, rate float64, cfg Config, iterFactor int) (mpic.GridCell, error) {
	noise, err := mpic.Noise(noiseKind, rate)
	if err != nil {
		return mpic.GridCell{}, err
	}
	return gridCell(cellScenario(scheme, g, noise, cfg, iterFactor), cfg), nil
}

// runGrid executes an experiment's cells as one durable grid session on
// the shared runner's streaming engine and returns the completed cells
// in definition order. keep retains each trial's full result (for
// experiments that read per-run trajectories such as the potential or
// the round count); with a checkpoint those trials persist as
// StoredResults and restored cells stream them back, so trajectory
// tables resume too.
//
// salt is the experiment's own contribution to the session identity: at
// least the table ID, plus every parameter the grid fingerprint cannot
// see because it lives in a closure — Tune variants (ablation, seed
// kinds, hash widths), NoiseFunc rates, UseProtocol shapes. It is folded
// into Grid.Spec and the session file name, so editing those parameters
// opens a fresh session instead of silently restoring stale cells under
// an unchanged fingerprint.
//
// The cells run on the engine's default pool, GOMAXPROCS workers capped
// at the cell count (GOMAXPROCS=1 runs them one at a time); a cell's
// result does not depend on the pool's width, so neither does a table.
//
// With cfg.Checkpoint set, the grid persists each completed cell into a
// per-grid file, so re-running the same experiment under the same Config
// resumes instead of restarting. Resume is exact at any worker count:
// the session matches saved cells on (Index, Key), so duplicate-key
// cells such as ablation variants get their own results back.
func runGrid(cfg Config, salt string, cells []mpic.GridCell, keep bool) ([]mpic.GridCellResult, error) {
	g := mpic.Grid{Cells: cells, KeepResults: keep, Retries: cfg.Retries}
	if cfg.Checkpoint != "" {
		g.Spec = salt + " " + g.Fingerprint()
		sum := sha256.Sum256([]byte(g.Spec))
		g.Store = mpic.NewFileGridStore(filepath.Join(cfg.Checkpoint,
			fmt.Sprintf("%s-%x.json", fileToken(salt), sum[:8])))
	}
	return sharedRunner.CollectGrid(context.Background(), g)
}

// fileToken reduces a session salt to a readable file-name prefix: its
// first field (the table ID by convention), stripped to portable
// characters.
func fileToken(salt string) string {
	token, _, _ := strings.Cut(salt, " ")
	return strings.Map(func(r rune) rune {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9', r == '-', r == '.':
			return r
		default:
			return '_'
		}
	}, token)
}

// runCells is runGrid for experiments that only need the per-cell
// aggregates.
func runCells(cfg Config, salt string, cells []mpic.GridCell) ([]mpic.SweepCell, error) {
	results, err := runGrid(cfg, salt, cells, false)
	if err != nil {
		return nil, err
	}
	out := make([]mpic.SweepCell, len(results))
	for i, r := range results {
		out[i] = r.Cell
	}
	return out, nil
}
