// Command mpicbench regenerates the paper's evaluation artefacts: the
// Table 1 comparison and the figure-style experiments (the registry of
// package experiments), printed as markdown tables.
//
// Example:
//
//	mpicbench -experiment table1
//	mpicbench -experiment all -quick
//	mpicbench -experiment all -quick -json tables.json
//
// The -json flag additionally writes the tables as machine-readable JSON
// (experiment ID, registry name, title, header, rows, notes), so the
// fidelity trajectory is tracked by diffing artefact files instead of
// re-parsing markdown. The tables' performance is measured by the repo
// benchmark (bench/, workload tables-quick), not by this command. Each
// table runs its cells on GOMAXPROCS workers (GOMAXPROCS=1 runs them one
// at a time); the rows are the same at any width.
//
// The -sweep flag switches the command to a streaming grid run instead
// of the named experiments: a cartesian product over party counts,
// schemes and noise rates, executed by the parallel grid engine
// (mpic.Runner.RunGrid) with each row printed the moment its cell
// completes. -parallel bounds the worker pool (0 = GOMAXPROCS, 1 =
// sequential); results are bit-identical at any setting, only row order
// and wall clock change. Example:
//
//	mpicbench -sweep -sweep-n 4,6 -sweep-schemes A,B -sweep-rates 0,0.002 -trials 2
//
// -parallel and the -sweep-* flags, like -delay, -netfaults and
// -fail-fast below, apply to sweep mode only: experiment mode rejects
// them instead of ignoring them.
//
// In sweep mode, -delay adds a fourth grid axis of network delay models
// (comma-separated name[:param], run on the virtual-time executor; the
// table gains a delay column) and -netfaults layers a deterministic
// network-fault schedule — outages, delay spikes, stragglers, crash-stop
// parties — onto every cell:
//
//	mpicbench -sweep -sweep-n 6 -delay unit,jitter:0.5,lognormal:0.3 \
//	    -netfaults outage=0.01,stragglers=1 -trials 2
//
// The -retries flag gives every failed grid cell that many extra
// attempts, each run at once (retried results are bit-identical to
// first-try ones); in sweep mode -fail-fast=false additionally
// quarantines cells that exhaust the budget — the grid finishes, failed
// cells print as ERROR rows, and the command exits with code 3 (partial
// success) instead of 1 (hard failure).
//
// The -sweep-checkpoint flag makes long grids resumable through the
// library's durable-session layer (mpic.FileGridStore): every completed
// cell is appended to the named session journal as one checksummed
// record, keyed by (n, scheme, rate), under a header holding a
// fingerprint of the grid flags. Re-running the same command after an interruption restores
// the checkpointed cells without re-running them and executes only the
// rest; a checkpoint written by different grid flags is rejected. The
// -checkpoint flag is the experiment-mode equivalent: a directory in
// which every experiment grid persists its cells, so an interrupted
// `-experiment all` resumes the tables it finished. Restored cells are
// bit-identical to re-run ones, so a resumed -json artefact is
// byte-identical to a fresh one.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"mpic"
	"mpic/internal/experiments"
	"mpic/internal/gridspec"
)

// Exit codes: 0 — clean success; 3 — a -sweep grid in quarantine mode
// (-fail-fast=false) finished with failed cells (partial success: the
// printed healthy rows are valid); 1 — hard failure (bad flags, a run
// error in fail-fast mode).
func main() {
	err := run(os.Args[1:])
	if err == nil {
		return
	}
	fmt.Fprintln(os.Stderr, "mpicbench:", err)
	var gf *mpic.GridFailure
	if errors.As(err, &gf) {
		os.Exit(3)
	}
	os.Exit(1)
}

func run(args []string) error {
	fs := flag.NewFlagSet("mpicbench", flag.ContinueOnError)
	var (
		name     = fs.String("experiment", "all", "experiment name or 'all': "+strings.Join(experiments.Names(), ", "))
		trials   = fs.Int("trials", 10, "trials per measured cell")
		seed     = fs.Int64("seed", 1, "base random seed")
		quick    = fs.Bool("quick", false, "smaller sizes and trial counts")
		jsonPath = fs.String("json", "", "also write results as JSON to this file")
		ckptDir  = fs.String("checkpoint", "", "experiment mode: directory of resumable per-grid checkpoints (interrupted tables resume instead of restarting)")
		retries  = fs.Int("retries", 0, "re-run a failed grid cell up to this many extra times (run at once; retried results are bit-identical)")
		failFast = fs.Bool("fail-fast", true, "sweep mode: stop on the first failed cell; =false quarantines failed cells, finishes the grid, and exits with code 3")

		doSweep    = fs.Bool("sweep", false, "run a streaming grid instead of the named experiments")
		swTopology = fs.String("sweep-topology", "", "sweep: topology family ("+strings.Join(mpic.TopologyNames(), "|")+"; default: the workload's)")
		swWorkload = fs.String("sweep-workload", "random", "sweep: workload family ("+strings.Join(mpic.WorkloadNames(), "|")+")")
		swRounds   = fs.Int("sweep-rounds", 0, "sweep: workload rounds (0 = default)")
		swNoise    = fs.String("sweep-noise", "random", "sweep: noise family ("+strings.Join(mpic.NoiseNames(), "|")+")")
		swN        = fs.String("sweep-n", "4,6", "sweep: comma-separated party counts")
		swSchemes  = fs.String("sweep-schemes", "A", "sweep: comma-separated schemes (1|A|B|C)")
		swRates    = fs.String("sweep-rates", "0.001", "sweep: comma-separated noise rates")
		swIters    = fs.Int("sweep-iterfactor", 30, "sweep: iteration budget multiplier")
		swParallel = fs.Int("parallel", 0, "sweep: concurrent cells (0 = GOMAXPROCS, 1 = sequential)")
		swCkpt     = fs.String("sweep-checkpoint", "", "sweep: incremental JSON checkpoint file; an existing one resumes the grid")
		swHashMode = fs.String("sweep-hashmode", "", "sweep: prefix-hash seed discipline for every cell (epoch|legacy; empty = the library default, epoch)")
		swEpochR   = fs.Int("sweep-epoch-refresh", 0, "sweep: epoch mode's seed-refresh interval R in iterations (0 = default)")
		swDelay    = fs.String("delay", "", "sweep: comma-separated delay models (name[:param], "+strings.Join(mpic.DelayNames(), "|")+") run as a fourth grid axis; empty = lockstep")
		swNetFlt   = fs.String("netfaults", "", "sweep: network-fault schedule applied to every cell, comma-separated k=v (outage, spike, stragglers, crashes, ...)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *trials < 1 {
		return fmt.Errorf("-trials must be at least 1, got %d", *trials)
	}
	if *retries < 0 {
		return fmt.Errorf("-retries must be non-negative, got %d", *retries)
	}
	if !*doSweep {
		// Quarantine is a streaming-grid mode: a named experiment's table
		// is meaningless with holes in it, so experiment mode always fails
		// fast and the flag is rejected rather than ignored. The network
		// timing flags are likewise sweep-only: the named experiments pin
		// the paper's lockstep tables. So are -parallel and every -sweep-*
		// flag: the tables define their own grids.
		var flagErr error
		fs.Visit(func(fl *flag.Flag) {
			switch {
			case fl.Name == "fail-fast":
				flagErr = fmt.Errorf("-fail-fast applies to -sweep mode only (experiment tables always fail fast)")
			case fl.Name == "delay", fl.Name == "netfaults":
				flagErr = fmt.Errorf("-%s applies to -sweep mode only (experiment tables pin the lockstep network)", fl.Name)
			case fl.Name == "parallel", strings.HasPrefix(fl.Name, "sweep-"):
				flagErr = fmt.Errorf("-%s applies to -sweep mode only (experiment tables define their own grids)", fl.Name)
			}
		})
		if flagErr != nil {
			return flagErr
		}
	}
	if *doSweep {
		ratesSet := false
		var flagErr error
		fs.Visit(func(fl *flag.Flag) {
			switch fl.Name {
			case "sweep-rates":
				ratesSet = true
			case "json", "experiment", "quick", "checkpoint":
				// Dropping these silently would leave a -json artefact
				// unwritten (or a -quick grid running at full cost);
				// reject the combination loudly instead.
				flagErr = fmt.Errorf("-%s is not supported in -sweep mode", fl.Name)
			}
		})
		if flagErr != nil {
			return flagErr
		}
		return runSweep(os.Stdout, sweepFlags{
			Grid: gridspec.Grid{
				Topology: *swTopology, Workload: *swWorkload, Rounds: *swRounds,
				Noise: *swNoise, N: *swN, Schemes: *swSchemes, Rates: *swRates,
				IterFactor: *swIters, Trials: *trials, Seed: *seed,
				HashMode: *swHashMode, EpochRefresh: *swEpochR,
				Delay: *swDelay, NetFaults: *swNetFlt,
			},
			ratesSet: ratesSet, parallel: *swParallel, checkpoint: *swCkpt,
			retries: *retries, failFast: *failFast,
		})
	}
	cfg := experiments.Config{Trials: *trials, Seed: *seed, Quick: *quick, Checkpoint: *ckptDir, Retries: *retries}
	var tables []*experiments.Table
	if *name == "all" {
		var err error
		if tables, err = experiments.RunAll(cfg); err != nil {
			return err
		}
	} else {
		t, err := experiments.Run(*name, cfg)
		if err != nil {
			return err
		}
		tables = []*experiments.Table{t}
	}
	for _, t := range tables {
		fmt.Println(t.Markdown())
	}
	if *jsonPath != "" {
		if err := writeJSON(*jsonPath, tables); err != nil {
			return fmt.Errorf("writing %s: %w", *jsonPath, err)
		}
	}
	return nil
}

func writeJSON(path string, tables []*experiments.Table) error {
	data, err := json.MarshalIndent(tables, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// sweepFlags carries the -sweep-* flag values: the grid-defining ones
// as a shared gridspec.Grid (the same struct mpicserve accepts as a
// JSON body), plus the execution-only flags that shape how — not what —
// the grid runs.
type sweepFlags struct {
	gridspec.Grid
	// ratesSet records whether -sweep-rates was given explicitly, so a
	// rate axis that would silently vanish (noise "none") errors instead.
	ratesSet bool
	// parallel bounds the engine's worker pool (0 = GOMAXPROCS).
	parallel int
	// checkpoint, when set, is the incremental JSON checkpoint file.
	checkpoint string
	// retries is the extra attempts a failed cell gets; failFast=false
	// quarantines cells that still fail instead of aborting the grid.
	retries  int
	failFast bool
}

// runSweep executes the cartesian grid through the streaming parallel
// engine, printing one markdown row per cell as it completes. When a
// checkpoint file is configured, the grid runs as a durable session
// (mpic.FileGridStore under the flag fingerprint): every finished cell
// is persisted by the engine, and a re-run restores the completed cells
// — streamed first, in definition order — before executing the rest.
func runSweep(w io.Writer, f sweepFlags) error {
	// The grid-defining flags resolve through the shared spec parser
	// (internal/gridspec) — the same code path mpicserve submissions
	// take, including the checkpoint fingerprint.
	grid, err := f.Grid.Build()
	if err != nil {
		return err
	}
	base := grid.Cells[0].Scenario
	if base.Noise == nil && f.ratesSet {
		return fmt.Errorf("-sweep-rates has no effect with -sweep-noise %q; pick a noise model to sweep rates over", f.Noise)
	}
	grid.Workers = f.parallel
	if f.checkpoint != "" {
		// The library owns the resume flow; the flag fingerprint is the
		// session's spec (Build sets it), so a checkpoint written by
		// different grid flags is rejected instead of silently merged.
		// Retry/quarantine flags stay out of the spec: they change fault
		// handling, never results.
		grid.Store = mpic.NewFileGridStore(f.checkpoint)
	}
	grid.Retries = f.retries
	if !f.failFast {
		grid.OnCellError = mpic.QuarantineCells
	}

	// Stream the table: title and header up front, one row per cell the
	// moment it completes (restored cells first, in definition order).
	// Row order under -parallel is completion order; the n/scheme/rate
	// columns are the row identity, exactly like the checkpoint keys.
	title := fmt.Sprintf("grid: %s workload over %s, noise %s", f.Workload, base.Topology.Name, f.Noise)
	// The delay column appears only when the delay axis is in use, so
	// lockstep sweeps keep their historical table shape.
	withDelay := f.Delay != ""
	header := []string{"n", "scheme", "noise rate", "success", "mean blowup",
		"mean iterations", "corruptions"}
	if withDelay {
		header = append([]string{"n", "scheme", "noise rate", "delay"}, header[3:]...)
	}
	fmt.Fprintf(w, "### SWEEP — %s\n\n", title)
	fmt.Fprintln(w, "| "+strings.Join(header, " | ")+" |")
	fmt.Fprintln(w, "|"+strings.Repeat("---|", len(header)))
	runner := mpic.NewRunner()
	defer runner.Close()
	restored, failed := 0, 0
	err = runner.RunGrid(context.Background(), grid, func(res mpic.GridCellResult) {
		// The engine serializes sink calls (and persists the cell before
		// streaming it), so printing here is race-free even under
		// -parallel.
		if res.Err != nil {
			failed++
			dcol := ""
			if withDelay {
				dcol = fmt.Sprintf(" %s |", res.Key.Delay)
			}
			fmt.Fprintf(w, "| %d | %s | %g |%s ERROR | — | — | after %d attempt(s): %v |\n",
				res.Key.N, res.Key.Scheme, res.Key.Rate, dcol, res.Attempts, res.Err)
			return
		}
		if res.Restored {
			restored++
		}
		fmt.Fprintln(w, sweepRow(res.Cell, withDelay))
	})
	var gridFail *mpic.GridFailure
	if err != nil && !errors.As(err, &gridFail) {
		return err
	}
	fmt.Fprintln(w)
	if restored > 0 {
		fmt.Fprintf(w, "*restored %d of %d cells from %s*\n", restored, len(grid.Cells), f.checkpoint)
	}
	if failed > 0 {
		fmt.Fprintf(w, "*quarantined %d of %d cells; they are not checkpointed and will re-run on resume*\n", failed, len(grid.Cells))
	}
	return err
}

// sweepRow formats one completed cell as a markdown table row; withDelay
// inserts the delay-axis column after the rate.
func sweepRow(c mpic.SweepCell, withDelay bool) string {
	cols := []string{
		fmt.Sprint(c.N),
		c.Scheme.String(),
		fmt.Sprintf("%g", c.Rate),
	}
	if withDelay {
		d := c.Delay
		if d == "" {
			d = "unit"
		}
		cols = append(cols, d)
	}
	cols = append(cols,
		fmt.Sprintf("%d/%d", c.Successes, c.Trials),
		fmt.Sprintf("%.1f", c.MeanBlowup()),
		fmt.Sprintf("%.0f", c.MeanIterations()),
		fmt.Sprint(c.Corruptions),
	)
	return "| " + strings.Join(cols, " | ") + " |"
}
