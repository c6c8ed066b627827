// Command mpicbench regenerates the paper's evaluation artefacts: the
// Table 1 comparison and the figure-style experiments of DESIGN.md §4,
// printed as markdown tables (the source material of EXPERIMENTS.md).
//
// Example:
//
//	mpicbench -experiment table1
//	mpicbench -experiment all -quick
//	mpicbench -experiment all -quick -json BENCH_PR1.json
//	mpicbench -experiment all -quick -json BENCH_PR2.json -compare BENCH_PR1.json
//
// The -json flag additionally writes the tables as machine-readable JSON
// (experiment ID, title, header, rows, notes, wall-clock cost), so
// successive PRs can track the performance and fidelity trajectory by
// diffing artefact files instead of re-parsing markdown.
//
// The -compare flag loads a prior artefact and prints per-experiment
// speedup ratios (old wall-clock / new wall-clock); the command exits
// non-zero if any experiment regressed by more than 10% (beyond a small
// absolute guard against timer noise on sub-25ms experiments). Artefacts
// produced before wall-clock stamping existed compare as "n/a".
//
// The -repeat flag runs the experiment tables N times and stamps each
// table with the median ElapsedMS and Allocs across the runs, so the
// artefact fed to -json/-compare carries a timing that same-binary
// scheduler noise cannot flap by ±10%:
//
//	mpicbench -experiment all -quick -repeat 3 -json BENCH_PR10.json
//
// The -cpuprofile and -memprofile flags write pprof profiles of the
// experiment run, so a claimed hot-path win can be verified against the
// actual flame graph. Profiling skews wall clock, so — exactly like
// -checkpoint — these flags do not combine with -json or -compare.
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
// `-experiment all` resumes the tables it finished. Because restored
// tables replay with non-comparable wall-clock timings, -checkpoint
// does not combine with -json or -compare.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
	"sort"
	"strings"

	"mpic"
	"mpic/internal/experiments"
	"mpic/internal/gridspec"
)

// Exit codes: 0 — clean success; 3 — a -sweep grid in quarantine mode
// (-fail-fast=false) finished with failed cells (partial success: the
// printed healthy rows are valid); 1 — hard failure (bad flags, a run
// error in fail-fast mode, a wall-clock regression under -compare).
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
		jsonPath = fs.String("json", "", "also write results as JSON to this file (e.g. BENCH_PR2.json)")
		compare  = fs.String("compare", "", "prior JSON artefact to compare against (e.g. BENCH_PR1.json); exits non-zero on >10% wall-clock regression")
		ckptDir  = fs.String("checkpoint", "", "experiment mode: directory of resumable per-grid checkpoints (interrupted tables resume instead of restarting; not combinable with -json/-compare, whose timings assume fresh runs)")
		repeat   = fs.Int("repeat", 1, "experiment mode: run the tables this many times and report the median ElapsedMS/Allocs (cuts same-binary timer noise out of the -compare gate)")
		cpuProf  = fs.String("cpuprofile", "", "experiment mode: write a CPU profile to this file (not combinable with -json/-compare, whose timings assume unprofiled runs)")
		memProf  = fs.String("memprofile", "", "experiment mode: write a heap profile to this file after the tables finish (not combinable with -json/-compare)")
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
	if *retries < 0 {
		return fmt.Errorf("-retries must be non-negative, got %d", *retries)
	}
	if !*doSweep {
		// Quarantine is a streaming-grid mode: a named experiment's table
		// is meaningless with holes in it, so experiment mode always fails
		// fast and the flag is rejected rather than ignored. The network
		// timing flags are likewise sweep-only: the named experiments pin
		// the paper's lockstep tables.
		var flagErr error
		fs.Visit(func(fl *flag.Flag) {
			switch fl.Name {
			case "fail-fast":
				flagErr = fmt.Errorf("-fail-fast applies to -sweep mode only (experiment tables always fail fast)")
			case "delay", "netfaults":
				flagErr = fmt.Errorf("-%s applies to -sweep mode only (experiment tables pin the lockstep network)", fl.Name)
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
			case "json", "compare", "experiment", "quick", "checkpoint", "repeat", "cpuprofile", "memprofile":
				// Dropping these silently would un-gate CI jobs modeled on
				// `make compare` (or leave a -quick grid running at full
				// cost); reject the combination loudly instead.
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
	if *ckptDir != "" && (*jsonPath != "" || *compare != "") {
		// Restored tables replay in near-zero wall clock, so a resumed
		// run's ElapsedMS is meaningless: written to a -json artefact it
		// poisons the next baseline, and fed to -compare it un-gates the
		// regression check behind a fake speedup. Reject the combination
		// loudly, exactly like sweep mode rejects its artefact flags.
		return fmt.Errorf("-checkpoint resumes tables with non-comparable wall-clock timings; it does not combine with -json/-compare")
	}
	if *repeat < 1 {
		return fmt.Errorf("-repeat must be at least 1, got %d", *repeat)
	}
	if *repeat > 1 && *ckptDir != "" {
		// Every repetition after the first would restore the checkpointed
		// tables in near-zero wall clock, so the "median" would be a replay
		// timing — the exact poison -repeat exists to remove.
		return fmt.Errorf("-repeat re-runs tables for median timings; it does not combine with -checkpoint, which replays finished tables")
	}
	if (*cpuProf != "" || *memProf != "") && (*jsonPath != "" || *compare != "") {
		// A profiled run's wall clock carries the profiler's overhead:
		// written to a -json artefact it poisons the next baseline, and fed
		// to -compare it trips (or hides) the regression gate. Same
		// rejection shape as -checkpoint.
		return fmt.Errorf("profiling skews wall-clock timings; -cpuprofile/-memprofile do not combine with -json/-compare")
	}
	if *cpuProf != "" {
		f, err := os.Create(*cpuProf)
		if err != nil {
			return fmt.Errorf("creating %s: %w", *cpuProf, err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			f.Close()
			return fmt.Errorf("starting CPU profile: %w", err)
		}
		defer func() {
			pprof.StopCPUProfile()
			f.Close()
		}()
	}
	cfg := experiments.Config{Trials: *trials, Seed: *seed, Quick: *quick, Checkpoint: *ckptDir, Retries: *retries}
	collect := func() ([]*experiments.Table, error) {
		if *name == "all" {
			return experiments.RunAll(cfg)
		}
		t, err := experiments.Run(*name, cfg)
		if err != nil {
			return nil, err
		}
		return []*experiments.Table{t}, nil
	}
	runs := make([][]*experiments.Table, 0, *repeat)
	for r := 0; r < *repeat; r++ {
		ts, err := collect()
		if err != nil {
			return err
		}
		runs = append(runs, ts)
	}
	tables := medianTables(runs)
	for _, t := range tables {
		fmt.Println(t.Markdown())
	}
	if *repeat > 1 {
		fmt.Printf("*ElapsedMS/Allocs are medians over %d runs*\n\n", *repeat)
	}
	if *memProf != "" {
		if err := writeHeapProfile(*memProf); err != nil {
			return err
		}
	}
	if *jsonPath != "" {
		if err := writeJSON(*jsonPath, tables); err != nil {
			return fmt.Errorf("writing %s: %w", *jsonPath, err)
		}
	}
	if *compare != "" {
		if err := compareAgainst(os.Stdout, *compare, tables); err != nil {
			return err
		}
	}
	return nil
}

// medianTables collapses N repeated runs into one table set: the first
// run's tables (rows are deterministic, so every run printed the same
// ones) restamped with the median ElapsedMS and Allocs across the runs.
// The median — not the mean — is what de-flaps the -compare gate: one
// run preempted by the scheduler moves the mean but not the median.
func medianTables(runs [][]*experiments.Table) []*experiments.Table {
	tables := runs[0]
	if len(runs) == 1 {
		return tables
	}
	for i, t := range tables {
		ms := make([]float64, len(runs))
		allocs := make([]uint64, len(runs))
		for j, run := range runs {
			ms[j] = run[i].ElapsedMS
			allocs[j] = run[i].Allocs
		}
		sort.Float64s(ms)
		sort.Slice(allocs, func(a, b int) bool { return allocs[a] < allocs[b] })
		n := len(runs)
		if n%2 == 1 {
			t.ElapsedMS = ms[n/2]
			t.Allocs = allocs[n/2]
		} else {
			t.ElapsedMS = (ms[n/2-1] + ms[n/2]) / 2
			t.Allocs = (allocs[n/2-1] + allocs[n/2]) / 2
		}
	}
	return tables
}

// writeHeapProfile snapshots the heap after a GC so the profile shows
// live retention rather than garbage awaiting collection.
func writeHeapProfile(path string) error {
	runtime.GC()
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("creating %s: %w", path, err)
	}
	if err := pprof.WriteHeapProfile(f); err != nil {
		f.Close()
		return fmt.Errorf("writing heap profile: %w", err)
	}
	return f.Close()
}

func writeJSON(path string, tables []*experiments.Table) error {
	data, err := json.MarshalIndent(tables, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// regressionGuardMS is the absolute slack added to the 10% regression
// threshold: sub-25ms experiments flap by more than 10% from timer and
// scheduler noise alone, so a regression must also cost at least this
// much wall clock before it fails the comparison.
const regressionGuardMS = 25

// regressionGuardAllocs is the allocation-count analogue: GC timing and
// map growth make tiny tables flap by a few thousand allocations, so an
// allocs regression must also be at least this many allocations before
// it fails the comparison.
const regressionGuardAllocs = 10000

// compareAgainst matches the freshly produced tables with a prior
// artefact by experiment ID and prints the speedup table. It returns an
// error (non-zero exit) if any experiment's wall clock or heap
// allocation count regressed by more than 10% beyond the noise guards.
func compareAgainst(w io.Writer, path string, tables []*experiments.Table) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return fmt.Errorf("reading comparison artefact: %w", err)
	}
	var old []*experiments.Table
	if err := json.Unmarshal(data, &old); err != nil {
		return fmt.Errorf("parsing %s: %w", path, err)
	}
	oldByID := make(map[string]*experiments.Table, len(old))
	for _, t := range old {
		oldByID[t.ID] = t
	}
	fmt.Fprintf(w, "### Comparison against %s\n\n", path)
	fmt.Fprintln(w, "| experiment | old ms | new ms | speedup | old allocs | new allocs |")
	fmt.Fprintln(w, "|---|---|---|---|---|---|")
	var regressed []string
	seen := make(map[string]bool, len(tables))
	allocCols := func(o, t *experiments.Table) string {
		if o == nil || o.Allocs == 0 || t.Allocs == 0 {
			return fmt.Sprintf(" n/a | %d |", t.Allocs)
		}
		return fmt.Sprintf(" %d | %d |", o.Allocs, t.Allocs)
	}
	for _, t := range tables {
		seen[t.ID] = true
		o, ok := oldByID[t.ID]
		switch {
		case !ok:
			fmt.Fprintf(w, "| %s | — | %.1f | new |%s\n", t.ID, t.ElapsedMS, allocCols(nil, t))
		case o.ElapsedMS <= 0 || t.ElapsedMS <= 0:
			fmt.Fprintf(w, "| %s | n/a | %.1f | n/a |%s\n", t.ID, t.ElapsedMS, allocCols(o, t))
		default:
			fmt.Fprintf(w, "| %s | %.1f | %.1f | %.2f× |%s\n", t.ID, o.ElapsedMS, t.ElapsedMS, o.ElapsedMS/t.ElapsedMS, allocCols(o, t))
			if t.ElapsedMS > o.ElapsedMS*1.10 && t.ElapsedMS-o.ElapsedMS > regressionGuardMS {
				regressed = append(regressed, fmt.Sprintf("%s (%.1fms → %.1fms)", t.ID, o.ElapsedMS, t.ElapsedMS))
			}
		}
		if ok && o.Allocs > 0 && t.Allocs > 0 &&
			float64(t.Allocs) > float64(o.Allocs)*1.10 && t.Allocs-o.Allocs > regressionGuardAllocs {
			regressed = append(regressed, fmt.Sprintf("%s (allocs %d → %d)", t.ID, o.Allocs, t.Allocs))
		}
	}
	// Experiments in the old artefact that this run did not produce are
	// lost coverage — a rename or removal must not silently pass the gate.
	var missing []string
	for _, o := range old {
		if !seen[o.ID] {
			fmt.Fprintf(w, "| %s | %.1f | — | missing |\n", o.ID, o.ElapsedMS)
			missing = append(missing, o.ID)
		}
	}
	fmt.Fprintln(w)
	if len(regressed) > 0 {
		return fmt.Errorf("performance regression >10%%: %s", strings.Join(regressed, ", "))
	}
	if len(missing) > 0 {
		return fmt.Errorf("experiments in %s not produced by this run: %s", path, strings.Join(missing, ", "))
	}
	return nil
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
