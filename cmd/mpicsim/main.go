// Command mpicsim runs one noise-resilient simulation and prints its
// outcome: which scheme, over which topology and workload, under which
// adversary, and whether every party decoded the correct output.
//
// The string flags are parsed through the library's open registries, so
// externally registered topologies, workloads, and noise models work
// here too; the run itself goes through mpic.Runner.
//
// Example:
//
//	mpicsim -topology line -n 6 -scheme A -noise random -rate 0.002
//
// With -trials above 1 the scenario is re-run at that many consecutive
// seeds through the streaming grid engine (one line per trial as it
// completes, then the aggregate); -workers bounds the concurrent trials.
// Results are bit-identical at any worker count. -checkpoint makes the
// trial grid a durable session: completed trials persist to the named
// JSON file (mpic.FileGridStore) and a re-run resumes the missing ones;
// -observe streams the grid's fine-grained progress (trial starts,
// per-iteration ticks) to stderr through mpic.NewProgressLog; -retries
// re-runs a failed trial up to that many extra times and then
// quarantines it so the rest of the batch still completes (partial
// success exits with code 3, see main).
//
//	mpicsim -topology line -n 6 -noise random -rate 0.002 -trials 20 -workers 4 \
//	    -checkpoint trials.ckpt.json -observe -retries 2
//
// The -delay flag switches the network to the virtual-time executor
// under a registered delay model (name[:param], e.g. lognormal:0.3);
// -netfaults layers a deterministic network-fault schedule on top
// (outages, delay spikes, stragglers, crash-stop parties) as
// comma-separated k=v pairs. Timing faults surface in the result as
// insdel noise plus virtual-time metrics (makespan, late symbols,
// per-link delay quantiles):
//
//	mpicsim -n 6 -noise random -rate 0.002 -delay lognormal:0.25 \
//	    -netfaults outage=0.01,stragglers=1,crashes=1
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
	"mpic/internal/gridspec"
	"mpic/internal/trace"
)

// Exit codes: 0 — every trial succeeded; 3 — the grid finished but some
// trials were quarantined after exhausting their -retries budget
// (partial success: the printed aggregate covers the healthy trials);
// 1 — hard failure (bad flags, a run error in fail-fast mode, an
// unusable checkpoint).
func main() {
	err := run(os.Stdout, os.Args[1:])
	if err == nil {
		return
	}
	fmt.Fprintln(os.Stderr, "mpicsim:", err)
	var gf *mpic.GridFailure
	if errors.As(err, &gf) {
		os.Exit(3)
	}
	os.Exit(1)
}

func run(w io.Writer, args []string) error {
	fs := flag.NewFlagSet("mpicsim", flag.ContinueOnError)
	var (
		topology = fs.String("topology", "", "topology: "+strings.Join(mpic.TopologyNames(), "|")+" (default: the workload's)")
		n        = fs.Int("n", 6, "number of parties")
		workload = fs.String("workload", "random", "workload: "+strings.Join(mpic.WorkloadNames(), "|"))
		rounds   = fs.Int("rounds", 0, "workload rounds (0 = default)")
		scheme   = fs.String("scheme", "A", "coding scheme: 1|A|B|C")
		noise    = fs.String("noise", "none", "noise: "+strings.Join(mpic.NoiseNames(), "|"))
		rate     = fs.Float64("rate", 0, "noise rate (fraction of total communication)")
		seed     = fs.Int64("seed", 1, "random seed")
		iters    = fs.Int("iterfactor", 100, "iteration budget multiplier (paper: 100)")
		faithful = fs.Bool("faithful", false, "run all iterations (no early stop)")
		hashmode = fs.String("hashmode", "", "prefix-hash seed discipline: epoch|legacy (default epoch — checkpointed hashing with the seed block refreshed every -epoch-refresh iterations)")
		epochR   = fs.Int("epoch-refresh", 0, "epoch mode's seed-refresh interval R in iterations (0 = default; at least the iteration budget never refreshes)")
		observe  = fs.Bool("observe", false, "stream per-iteration progress to stderr (an mpic.Observer sink)")
		obsEvery = fs.Int("observe-every", 0, "with -observe and -trials > 1: subsample iteration lines (print every k-th, with percent + ETA; 0 = every iteration, -1 = auto ~5% of the budget)")
		delay    = fs.String("delay", "", "delay model name[:param] ("+strings.Join(mpic.DelayNames(), "|")+"; empty or 'none' = lockstep)")
		netflt   = fs.String("netfaults", "", "network-fault schedule, comma-separated k=v: outage, outage-len, spike, spike-delay, stragglers, straggler-delay, crashes, crash-len, seed")
		asJSON   = fs.Bool("json", false, "print the result as JSON")
		doTrace  = fs.Bool("trace", false, "print the per-iteration potential trace")
		trials   = fs.Int("trials", 1, "independent seeds to run (above 1: streamed through the grid engine)")
		workers  = fs.Int("workers", 0, "concurrent trials when -trials > 1 (0 = GOMAXPROCS)")
		ckpt     = fs.String("checkpoint", "", "with -trials > 1: resumable JSON checkpoint file for the trial grid")
		retries  = fs.Int("retries", 0, "with -trials > 1: re-run a failed trial up to this many extra times, then quarantine it and finish the batch (exit code 3 on partial success)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	// The flag values resolve through the shared spec parser — the same
	// struct, field for field, that mpicserve accepts as a JSON body.
	sc, err := gridspec.Scenario{
		Topology:     *topology,
		N:            *n,
		Workload:     *workload,
		Rounds:       *rounds,
		Scheme:       *scheme,
		Noise:        *noise,
		Rate:         *rate,
		Seed:         *seed,
		IterFactor:   *iters,
		Faithful:     *faithful,
		HashMode:     *hashmode,
		EpochRefresh: *epochR,
		Delay:        *delay,
		NetFaults:    *netflt,
	}.Build()
	if err != nil {
		return err
	}
	runner := mpic.NewRunner()
	defer runner.Close()
	if *trials > 1 {
		if *doTrace {
			return fmt.Errorf("-trace reads one run's trajectory; it does not combine with -trials %d", *trials)
		}
		if *retries < 0 {
			return fmt.Errorf("-retries must be non-negative, got %d", *retries)
		}
		return runTrials(w, runner, sc, trialOpts{
			trials: *trials, workers: *workers, retries: *retries,
			checkpoint: *ckpt, observe: *observe, obsEvery: *obsEvery, asJSON: *asJSON,
		})
	}
	if *ckpt != "" {
		return fmt.Errorf("-checkpoint resumes a trial grid; it needs -trials > 1")
	}
	if *retries != 0 {
		return fmt.Errorf("-retries applies to a trial grid; it needs -trials > 1")
	}
	if *observe {
		sc.Observers = append(sc.Observers, mpic.NewIterationLog(os.Stderr))
	}
	res, err := runner.Run(context.Background(), sc)
	if err != nil {
		return err
	}
	if *asJSON {
		return printJSON(w, res)
	}
	printHuman(w, sc, res)
	if *doTrace {
		printTrace(w, res)
	}
	return nil
}

// trialOpts carries the multi-seed grid mode's flags.
type trialOpts struct {
	trials, workers int
	retries         int
	checkpoint      string
	observe, asJSON bool
	// obsEvery subsamples the -observe iteration stream: print every k-th
	// line (with percent done and an ETA), -1 picks ~5% of the budget.
	obsEvery int
}

// runTrials re-runs the scenario at consecutive seeds through the
// streaming grid engine: one single-trial cell per seed, a line per
// trial the moment it completes, then the aggregate. With a checkpoint
// file the grid is a durable session — completed trials are restored
// instead of re-run; with -observe the engine's progress stream narrates
// every trial on stderr.
func runTrials(w io.Writer, runner *mpic.Runner, sc mpic.Scenario, opts trialOpts) error {
	cells := make([]mpic.GridCell, opts.trials)
	for i := range cells {
		s := sc
		s.Seed = sc.Seed + int64(i)
		cells[i] = mpic.GridCell{Scenario: s, Trials: 1}
	}
	grid := mpic.Grid{Cells: cells, Workers: opts.workers}
	if opts.retries > 0 {
		// With a retry budget the batch runs in quarantine mode: a trial
		// that keeps failing is reported and skipped instead of killing
		// the batch, and main maps the resulting *mpic.GridFailure to
		// exit code 3.
		grid.Retries = opts.retries
		grid.OnCellError = mpic.QuarantineCells
	}
	if opts.checkpoint != "" {
		// The default spec (Grid.Fingerprint) covers the flags that shape
		// the cells — topology, workload, noise, seed, budget — so a
		// checkpoint from a different invocation is rejected.
		grid.Store = mpic.NewFileGridStore(opts.checkpoint)
	}
	if opts.observe {
		if opts.obsEvery != 0 {
			grid.Progress = mpic.NewThrottledProgressLog(os.Stderr, opts.obsEvery)
		} else {
			grid.Progress = mpic.NewProgressLog(os.Stderr)
		}
	}
	agg := mpic.SweepCell{}
	restored, failed := 0, 0
	err := runner.RunGrid(context.Background(), grid, func(res mpic.GridCellResult) {
		if res.Err != nil {
			// A quarantined trial carries no aggregate — report it and
			// keep it out of the totals.
			failed++
			if !opts.asJSON {
				fmt.Fprintf(w, "trial %3d (seed %d): ERROR after %d attempt(s): %v\n",
					res.Index, sc.Seed+int64(res.Index), res.Attempts, res.Err)
			}
			return
		}
		c := res.Cell
		agg.Merge(c)
		if res.Restored {
			restored++
		}
		if !opts.asJSON {
			status := "SUCCESS"
			if c.Successes < c.Trials {
				status = "FAILURE"
			}
			fmt.Fprintf(w, "trial %3d (seed %d): %s blowup=%.2f iterations=%.0f corruptions=%d\n",
				res.Index, sc.Seed+int64(res.Index), status, c.MeanBlowup(), c.MeanIterations(), c.Corruptions)
		}
	})
	var gridFail *mpic.GridFailure
	if err != nil && !errors.As(err, &gridFail) {
		return err
	}
	if opts.asJSON {
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		if encErr := enc.Encode(map[string]interface{}{
			"trials":         agg.Trials,
			"successes":      agg.Successes,
			"successRate":    agg.SuccessRate(),
			"meanBlowup":     agg.MeanBlowup(),
			"meanIterations": agg.MeanIterations(),
			"corruptions":    agg.Corruptions,
			"hashCollisions": agg.Collisions,
			"restoredTrials": restored,
			"failedTrials":   failed,
		}); encErr != nil {
			return encErr
		}
		return err
	}
	fmt.Fprintf(w, "aggregate: %d/%d succeeded, mean blowup %.2f, mean iterations %.0f, %d corruptions\n",
		agg.Successes, agg.Trials, agg.MeanBlowup(), agg.MeanIterations(), agg.Corruptions)
	if restored > 0 {
		fmt.Fprintf(w, "restored %d of %d trials from %s\n", restored, opts.trials, opts.checkpoint)
	}
	if failed > 0 {
		fmt.Fprintf(w, "quarantined %d of %d trials (excluded from the aggregate)\n", failed, opts.trials)
	}
	return err
}

// printTrace dumps the oracle's per-iteration snapshots: the agreed
// prefix G*, the divergence B*, and how many links were repairing.
func printTrace(w io.Writer, res *mpic.Result) {
	fmt.Fprintln(w, "  iteration trace (G* / B* / links in meeting points):")
	for _, snap := range res.Potential {
		marker := ""
		if snap.BStar > 0 {
			marker = "  <- divergence"
		}
		fmt.Fprintf(w, "    iter %4d: G*=%-4d B*=%-3d mp=%d%s\n",
			snap.Iteration, snap.GStar, snap.BStar, snap.MeetingLinks, marker)
	}
}

func printHuman(w io.Writer, sc mpic.Scenario, res *mpic.Result) {
	status := "SUCCESS"
	if !res.Success {
		status = fmt.Sprintf("FAILURE (%d parties wrong)", res.WrongParties)
	}
	workload := sc.Workload.Name
	if workload == "" {
		workload = "random"
	}
	fmt.Fprintf(w, "%s — %s over %s(n=%d), workload %s\n",
		status, sc.Scheme, sc.Topology.Name, sc.Topology.N, workload)
	fmt.Fprintf(w, "  protocol:       %d chunks, CC(Π) = %d bits\n", res.NumChunks, res.CCProtocol)
	fmt.Fprintf(w, "  simulation:     %d iterations, %d rounds, G* = %d chunks\n",
		res.Iterations, res.Metrics.Rounds, res.GStar)
	fmt.Fprintf(w, "  communication:  %d bits (blowup %.2fx)\n", res.Metrics.CC, res.Blowup)
	fmt.Fprintf(w, "  noise:          %d corruptions (µ = %.5f), %d oracle hash collisions\n",
		res.Metrics.TotalCorruptions(), res.Metrics.NoiseFraction(), res.Metrics.HashCollisions)
	if n := res.Metrics.Net; n != nil {
		fmt.Fprintf(w, "  network:        makespan %.1f rounds, %d late (%d redelivered, %d dropped), %d erasures, worst p99 delay %.2f\n",
			n.Makespan, n.LateSymbols, n.LateDelivered, n.LateDropped, n.Erasures, n.MaxP99())
	}
	fmt.Fprintf(w, "  per phase CC:  ")
	for ph := trace.Phase(0); ph < trace.NumPhases; ph++ {
		fmt.Fprintf(w, " %s=%d", ph, res.Metrics.CCPhase[ph])
	}
	fmt.Fprintln(w)
	if res.BrokenSeedLinks > 0 {
		fmt.Fprintf(w, "  broken seeds:   %d link endpoints\n", res.BrokenSeedLinks)
	}
}

func printJSON(w io.Writer, res *mpic.Result) error {
	out := map[string]interface{}{
		"success":        res.Success,
		"chunks":         res.NumChunks,
		"ccProtocol":     res.CCProtocol,
		"cc":             res.Metrics.CC,
		"blowup":         res.Blowup,
		"iterations":     res.Iterations,
		"rounds":         res.Metrics.Rounds,
		"gStar":          res.GStar,
		"corruptions":    res.Metrics.TotalCorruptions(),
		"noiseFraction":  res.Metrics.NoiseFraction(),
		"hashCollisions": res.Metrics.HashCollisions,
		"wrongParties":   res.WrongParties,
	}
	if n := res.Metrics.Net; n != nil {
		out["makespan"] = n.Makespan
		out["lateSymbols"] = n.LateSymbols
		out["lateDelivered"] = n.LateDelivered
		out["lateDropped"] = n.LateDropped
		out["erasures"] = n.Erasures
		out["worstP99Delay"] = n.MaxP99()
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(out)
}
