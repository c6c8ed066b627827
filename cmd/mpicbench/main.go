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
// The -grid flag runs a streaming grid instead of the named
// experiments: the spec in the named file, the JSON body mpicserve's
// POST /sessions takes (package gridspec; omitted fields take its
// defaults). Its cells — party counts × schemes × noise rates, × delay
// models when the spec has a "delay" field — run on the parallel grid
// engine (mpic.Runner.RunGrid), and each row prints the moment its cell
// completes. -parallel bounds the worker pool (0 = GOMAXPROCS, 1 =
// sequential); rows are bit-identical at any setting, only their order
// changes:
//
//	mpicbench -grid examples/grid.json -parallel 2
//
// Each mode rejects the other's flags instead of ignoring them. Grid
// mode takes -grid, -checkpoint, -retries, -fail-fast and -parallel; its
// trials and seed are fields of the spec.
//
// The -retries flag gives every failed grid cell that many extra
// attempts, each run at once (retried results are bit-identical to
// first-try ones); in grid mode -fail-fast=false additionally
// quarantines cells that exhaust the budget — the grid finishes, failed
// cells print as ERROR rows, and the command exits with code 3 (partial
// success) instead of 1 (hard failure).
//
// The -checkpoint flag makes long runs resumable through the library's
// durable-session layer (mpic.FileGridStore). In grid mode it names a
// session journal file: every completed cell is appended as one
// checksummed record under a header holding the spec's fingerprint
// (gridspec.Grid.Spec), a re-run restores those cells and runs only the
// rest, and a journal written by a different grid is rejected. In
// experiment mode it names a directory of per-grid journals, so an
// interrupted `-experiment all` resumes the tables it finished. Restored
// cells are bit-identical to re-run ones, so a resumed -json artefact is
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
	"slices"
	"strings"

	"mpic"
	"mpic/internal/experiments"
	"mpic/internal/gridspec"
)

// Exit codes: 0 — clean success; 3 — a -grid run in quarantine mode
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

// modeFlags lists the flags each mode takes; any other flag set on the
// command line is an error rather than silently ignored.
var modeFlags = map[string][]string{
	"experiment": {"experiment", "trials", "seed", "quick", "json", "checkpoint", "retries"},
	"grid":       {"grid", "checkpoint", "retries", "fail-fast", "parallel"},
}

func run(args []string) error {
	fs := flag.NewFlagSet("mpicbench", flag.ContinueOnError)
	var (
		name     = fs.String("experiment", "all", "experiment name or 'all': "+strings.Join(experiments.Names(), ", "))
		trials   = fs.Int("trials", 10, "experiment mode: trials per measured cell")
		seed     = fs.Int64("seed", 1, "experiment mode: base random seed")
		quick    = fs.Bool("quick", false, "experiment mode: smaller sizes and trial counts")
		jsonPath = fs.String("json", "", "experiment mode: also write results as JSON to this file")
		ckpt     = fs.String("checkpoint", "", "resume instead of restarting: experiment mode, a directory of per-grid session journals; grid mode, the session journal file")
		retries  = fs.Int("retries", 0, "re-run a failed grid cell up to this many extra times (run at once; retried results are bit-identical)")
		gridPath = fs.String("grid", "", "run the grid spec in this JSON file (the body mpicserve's POST /sessions takes) instead of the named experiments")
		failFast = fs.Bool("fail-fast", true, "grid mode: stop on the first failed cell; =false quarantines failed cells, finishes the grid, and exits with code 3")
		parallel = fs.Int("parallel", 0, "grid mode: concurrent cells (0 = GOMAXPROCS, 1 = sequential)")
	)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return nil // -h: the flag set printed the usage
		}
		return err
	}
	mode := "experiment"
	if *gridPath != "" {
		mode = "grid"
	}
	var flagErr error
	fs.Visit(func(fl *flag.Flag) {
		if flagErr == nil && !slices.Contains(modeFlags[mode], fl.Name) {
			flagErr = fmt.Errorf("-%s does not apply in %s mode (it takes -%s)", fl.Name, mode, strings.Join(modeFlags[mode], ", -"))
		}
	})
	if flagErr != nil {
		return flagErr
	}
	if *retries < 0 {
		return fmt.Errorf("-retries must be non-negative, got %d", *retries)
	}
	if mode == "grid" {
		if *parallel < 0 {
			return fmt.Errorf("-parallel must be non-negative (0 = GOMAXPROCS, 1 = sequential), got %d", *parallel)
		}
		f, err := os.Open(*gridPath)
		if err != nil {
			return err
		}
		spec, err := gridspec.Decode(f)
		f.Close()
		if err != nil {
			return fmt.Errorf("%s: %w", *gridPath, err)
		}
		return runGrid(os.Stdout, spec, gridRun{checkpoint: *ckpt, parallel: *parallel, retries: *retries, failFast: *failFast})
	}
	if *trials < 1 {
		return fmt.Errorf("-trials must be at least 1, got %d", *trials)
	}
	cfg := experiments.Config{Trials: *trials, Seed: *seed, Quick: *quick, Checkpoint: *ckpt, Retries: *retries}
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

// gridRun carries the grid-mode flags, which shape how — not what —
// a grid runs, so they stay out of the spec and its fingerprint.
type gridRun struct {
	// checkpoint, when set, is the session journal file.
	checkpoint string
	// parallel bounds the engine's worker pool (0 = GOMAXPROCS).
	parallel int
	// retries is the extra attempts a failed cell gets; failFast=false
	// quarantines cells that still fail instead of aborting the grid.
	retries  int
	failFast bool
}

// runGrid normalizes and builds a decoded spec and executes it through
// the streaming parallel engine, printing one markdown row per cell as
// it completes. When a checkpoint file is configured, the grid runs as
// a durable session (mpic.FileGridStore under the spec's fingerprint):
// every finished cell is persisted by the engine, and a re-run restores
// the completed cells — streamed first, in definition order — before
// executing the rest.
func runGrid(w io.Writer, spec gridspec.Grid, r gridRun) error {
	// An explicit rate axis must be seen before Normalize fills in the
	// default one.
	ratesSet := spec.Rates != ""
	spec = spec.Normalize()
	grid, err := spec.Build()
	if err != nil {
		return err
	}
	base := grid.Cells[0].Scenario
	if base.Noise == nil && ratesSet {
		return fmt.Errorf("rates has no effect with noise %q; pick a noise model to sweep rates over", spec.Noise)
	}
	grid.Workers = r.parallel
	if r.checkpoint != "" {
		// The library owns the resume flow; the spec's fingerprint is the
		// session's spec (Build sets it), so a checkpoint written by a
		// different grid is rejected instead of silently merged.
		grid.Store = mpic.NewFileGridStore(r.checkpoint)
	}
	grid.Retries = r.retries
	if !r.failFast {
		grid.OnCellError = mpic.QuarantineCells
	}

	// Stream the table: title and header up front, one row per cell the
	// moment it completes (restored cells first, in definition order).
	// Row order under -parallel is completion order; the n/scheme/rate
	// columns are the row identity, exactly like the checkpoint keys.
	title := fmt.Sprintf("grid: %s workload over %s, noise %s", spec.Workload, base.Topology.Name, spec.Noise)
	// The delay column appears only when the delay axis is in use, so
	// lockstep grids keep their historical table shape.
	withDelay := spec.Delay != ""
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
		fmt.Fprintln(w, gridRow(res.Cell, withDelay))
	})
	var gridFail *mpic.GridFailure
	if err != nil && !errors.As(err, &gridFail) {
		return err
	}
	fmt.Fprintln(w)
	if restored > 0 {
		fmt.Fprintf(w, "*restored %d of %d cells from %s*\n", restored, len(grid.Cells), r.checkpoint)
	}
	if failed > 0 {
		fmt.Fprintf(w, "*quarantined %d of %d cells; they are not checkpointed and will re-run on resume*\n", failed, len(grid.Cells))
	}
	return err
}

// gridRow formats one completed cell as a markdown table row; withDelay
// inserts the delay-axis column after the rate.
func gridRow(c mpic.SweepCell, withDelay bool) string {
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
