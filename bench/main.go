// Command bench is the repository's benchmark. It runs five workloads
// against the library's public entry points — the experiment tables, two
// single-scenario loops, a durable grid session and the grid service over
// HTTP — times every op from outside, checks every op's output, and
// prints the end-to-end metrics. A traced run (-trace 1) adds a CPU
// profile attributed to the repository's layers, spans around every
// call it makes into a layer, and the per-layer metrics.
//
// Run it from the root of the repository (bench/run.sh builds and runs
// it there):
//
//	bash bench/run.sh -workload serve -seconds 15 -trace 0
//	bash bench/run.sh -workload all -json set-a.json
//	bash bench/run.sh -compare set-a.json set-b.json
//
// The last line of standard output is one JSON object: {"correct",
// "attempted", "failed", "metrics"}. See README.md for the workloads and
// the metric glossary.
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"time"

	"mpic/internal/experiments"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

type options struct {
	workload  string
	seed      int64
	seconds   float64
	trace     int
	traceDir  string
	tmp       string
	jsonPath  string
	short     bool
	writePins string
	tablesRef string
	compare   string
	benchJSON string
}

// result is the final line of a run.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var o options
	fs.StringVar(&o.workload, "workload", "", "workload to run: tables-quick, scenario-lockstep, scenario-des, grid-session, serve, or all")
	fs.Int64Var(&o.seed, "seed", defaultSeed, "input seed; output pins are checked only at the default seed")
	fs.Float64Var(&o.seconds, "seconds", 15, "how long each measured phase runs (whole passes and sessions finish)")
	fs.IntVar(&o.trace, "trace", 0, "1 adds a traced phase and reports the per-layer metrics instead of the end-to-end ones")
	fs.StringVar(&o.traceDir, "trace-dir", ".bench_build/trace", "where a traced run writes its CPU profile, spans and layer table")
	fs.StringVar(&o.tmp, "tmp", ".bench_build/tmp", "scratch directory for session stores and service data")
	fs.StringVar(&o.jsonPath, "json", "", "append one JSON line per workload run to this file")
	fs.BoolVar(&o.short, "short", false, "smoke run: about 1% of each workload's pinned ops, no deadline")
	fs.StringVar(&o.writePins, "write-pins", "", "run the pinned ops at the default seed and write their hashes to this directory (testdata/pins)")
	fs.StringVar(&o.tablesRef, "tables-ref", "../BENCH_PR10.json", "experiment artefact the tables-quick pins must reproduce (with -write-pins)")
	fs.StringVar(&o.compare, "compare", "", "compare two -json sets: -compare A.json B.json")
	fs.StringVar(&o.benchJSON, "benchmark", "BENCHMARK.json", "benchmark definition holding the end-to-end bounds (with -compare)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if o.trace != 0 && o.trace != 1 {
		fmt.Fprintln(stderr, "bench: -trace must be 0 or 1")
		return 2
	}

	var err error
	switch {
	case o.compare != "":
		if fs.NArg() != 1 {
			fmt.Fprintln(stderr, "bench: -compare takes two files: -compare A.json B.json")
			return 2
		}
		var ok bool
		ok, err = compareSets(stdout, o.benchJSON, o.compare, fs.Arg(0))
		if err == nil && !ok {
			return 1
		}
	case o.workload == "":
		fmt.Fprintln(stderr, "bench: -workload is required")
		return 2
	case o.writePins != "":
		err = writeAllPins(stdout, o)
	case o.workload == "all":
		var res result
		res, err = runAll(o, stdout, stderr)
		if err == nil {
			err = printResult(stdout, res)
			if err == nil && !res.Correct {
				return 1
			}
		}
	default:
		var res result
		res, err = runWorkload(o, stdout, stderr)
		if err == nil {
			err = printResult(stdout, res)
			if err == nil && !res.Correct {
				return 1
			}
		}
	}
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	return 0
}

func printResult(w io.Writer, res result) error {
	data, err := json.Marshal(res)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", data)
	return err
}

// A run times its set-up in setupBatches batches; setup_s is the median
// of their per-set-up means. A batch repeats the set-up for at least
// setupBatchTime, so the collector cycles that land on some set-ups and
// not on others average out within it.
const (
	setupBatches   = 5
	setupBatchTime = 100 * time.Millisecond
)

// timeSetup times batches of fresh set-ups, each batch from a collected
// heap, and returns the mean set-up time of every batch in seconds.
func timeSetup(d system, batches int) ([]float64, error) {
	out := make([]float64, batches)
	for b := range out {
		runtime.GC()
		start := time.Now()
		n := 0
		for n == 0 || time.Since(start) < setupBatchTime {
			if err := d.setup(); err != nil {
				return nil, err
			}
			n++
		}
		out[b] = time.Since(start).Seconds() / float64(n)
	}
	return out, nil
}

// runWorkload runs one workload in this process: set-up several times,
// then the untraced phase, then — with -trace — a fresh set-up and the
// traced phase.
func runWorkload(o options, stdout, stderr io.Writer) (result, error) {
	w, err := lookupWorkload(o.workload)
	if err != nil {
		return result{}, err
	}
	if err := os.MkdirAll(o.tmp, 0o755); err != nil {
		return result{}, err
	}
	tmp, err := os.MkdirTemp(o.tmp, w.name+"-")
	if err != nil {
		return result{}, err
	}
	defer os.RemoveAll(tmp)

	var pins []string
	if o.seed == defaultSeed {
		if pins, err = loadPins(w.name); err != nil {
			return result{}, err
		}
	}
	d := w.new(config{seed: o.seed, short: o.short, tmp: tmp})
	defer d.close()

	batches, maxOps := setupBatches, 0
	if o.short {
		batches, maxOps = 1, w.shortOps
	}
	setups, err := timeSetup(d, batches)
	if err != nil {
		return result{}, fmt.Errorf("%s set-up: %w", w.name, err)
	}

	fmt.Fprintf(stdout, "workload %s seed %d\n", w.name, o.seed)
	untraced, err := measure(d, newPhase(o.seconds, maxOps, pins, nil), nil)
	if err != nil {
		return result{}, fmt.Errorf("%s: %w", w.name, err)
	}
	reportPins(stdout, o.seed, pins, untraced.ops)
	e2e := endToEndMetrics(untraced, setups)
	printEndToEnd(stdout, untraced, e2e, setups)
	res := result{Attempted: untraced.ops, Failed: untraced.failed, Metrics: e2e}
	errs := untraced.errs

	if o.trace == 1 {
		if err := d.setup(); err != nil {
			return result{}, fmt.Errorf("%s set-up: %w", w.name, err)
		}
		report, traced, err := tracedPhase(o, w, d, maxOps, pins, untraced)
		if err != nil {
			return result{}, err
		}
		report.print(stdout, traced)
		res.Attempted += traced.ops
		res.Failed += traced.failed
		res.Metrics = report.reported()
		errs = append(errs, traced.errs...)
	}
	for _, e := range errs {
		fmt.Fprintln(stderr, "bench: failed op:", e)
	}
	res.Correct = res.Failed == 0 && res.Attempted > 0
	if o.jsonPath != "" {
		if err := appendRecord(o.jsonPath, w.name, o, res); err != nil {
			return result{}, err
		}
	}
	return res, nil
}

// tracedPhase measures the workload again with the CPU profiler on and
// the workloads' spans and counters recording, then attributes the
// profile to layers and writes the profile, spans and layer metrics to
// the trace directory.
func tracedPhase(o options, w workload, d system, maxOps int, pins []string, untraced phaseStats) (*layerReport, phaseStats, error) {
	if err := os.MkdirAll(o.traceDir, 0o755); err != nil {
		return nil, phaseStats{}, err
	}
	tr := newTracer()
	var prof bytes.Buffer
	traced, err := measure(d, newPhase(o.seconds, maxOps, pins, tr), &prof)
	if err != nil {
		return nil, phaseStats{}, fmt.Errorf("%s traced: %w", w.name, err)
	}
	samples, err := parseCPUProfile(prof.Bytes())
	if err != nil {
		return nil, phaseStats{}, err
	}
	report := perLayerMetrics(untraced, traced, attribute(samples), tr)

	base := filepath.Join(o.traceDir, w.name)
	if err := os.WriteFile(base+".cpu.pprof", prof.Bytes(), 0o644); err != nil {
		return nil, phaseStats{}, err
	}
	if err := tr.writeSpans(base + ".spans.jsonl"); err != nil {
		return nil, phaseStats{}, err
	}
	data, err := json.MarshalIndent(report.metrics, "", " ")
	if err != nil {
		return nil, phaseStats{}, err
	}
	if err := os.WriteFile(base+".layers.json", append(data, '\n'), 0o644); err != nil {
		return nil, phaseStats{}, err
	}
	return report, traced, nil
}

func reportPins(w io.Writer, seed int64, pins []string, ops int) {
	switch {
	case seed != defaultSeed:
		fmt.Fprintln(w, "pins: unchecked (non-default seed; structural checks only)")
	case pins == nil:
		fmt.Fprintln(w, "pins: none written for this workload")
	default:
		fmt.Fprintf(w, "pins: checked %d of %d ops\n", min(ops, len(pins)), ops)
	}
}

// record is one line of a -json set.
type record struct {
	Workload string  `json:"workload"`
	Seed     int64   `json:"seed"`
	Seconds  float64 `json:"seconds"`
	Trace    int     `json:"trace"`
	result
}

func appendRecord(path, workload string, o options, res result) error {
	data, err := json.Marshal(record{Workload: workload, Seed: o.seed, Seconds: o.seconds, Trace: o.trace, result: res})
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(data, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// runAll runs every workload, each in a fresh process of this binary,
// and folds their result lines into one.
func runAll(o options, stdout, stderr io.Writer) (result, error) {
	self, err := os.Executable()
	if err != nil {
		return result{}, err
	}
	all := result{Correct: true, Metrics: map[string]metric{}}
	for _, w := range workloads {
		args := []string{
			"-workload", w.name, "-seed", fmt.Sprint(o.seed), "-seconds", fmt.Sprint(o.seconds),
			"-trace", fmt.Sprint(o.trace),
			"-trace-dir", o.traceDir, "-tmp", o.tmp,
		}
		if o.jsonPath != "" {
			args = append(args, "-json", o.jsonPath)
		}
		if o.short {
			args = append(args, "-short")
		}
		cmd := exec.Command(self, args...)
		cmd.Stderr = stderr
		out, err := cmd.StdoutPipe()
		if err != nil {
			return result{}, err
		}
		if err := cmd.Start(); err != nil {
			return result{}, err
		}
		var last string
		sc := bufio.NewScanner(out)
		sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
		for sc.Scan() {
			last = sc.Text()
			fmt.Fprintln(stdout, last)
		}
		scanErr := sc.Err()
		waitErr := cmd.Wait()
		var res result
		if err := json.Unmarshal([]byte(last), &res); err != nil {
			return result{}, fmt.Errorf("%s: no result line (%v, %v)", w.name, waitErr, scanErr)
		}
		var exitErr *exec.ExitError
		if waitErr != nil && !errors.As(waitErr, &exitErr) {
			return result{}, fmt.Errorf("%s: %w", w.name, waitErr)
		}
		all.Correct = all.Correct && res.Correct
		all.Attempted += res.Attempted
		all.Failed += res.Failed
		for name, m := range res.Metrics {
			all.Metrics[w.name+"."+name] = m
		}
	}
	return all, nil
}

// writeAllPins runs every selected workload's pinned ops at the default
// seed and writes their hashes.
func writeAllPins(stdout io.Writer, o options) error {
	if o.seed != defaultSeed {
		return fmt.Errorf("-write-pins runs at the default seed %d only", defaultSeed)
	}
	if err := os.MkdirAll(o.tmp, 0o755); err != nil {
		return err
	}
	selected := workloads
	if o.workload != "all" {
		w, err := lookupWorkload(o.workload)
		if err != nil {
			return err
		}
		selected = []workload{w}
	}
	for _, w := range selected {
		tmp, err := os.MkdirTemp(o.tmp, w.name+"-")
		if err != nil {
			return err
		}
		d := w.new(config{seed: defaultSeed, tmp: tmp})
		err = d.setup()
		var ph *phase
		if err == nil {
			ph = newPhase(0, w.ops, nil, nil)
			_, err = measure(d, ph, nil)
		}
		d.close()
		os.RemoveAll(tmp)
		if err != nil {
			return fmt.Errorf("%s: %w", w.name, err)
		}
		if ph.failed > 0 {
			return fmt.Errorf("%s: %d ops failed: %v", w.name, ph.failed, ph.errs)
		}
		if w.name == "tables-quick" {
			if err := checkTablesRef(o.tablesRef, ph.hashes); err != nil {
				return err
			}
		}
		if err := writePins(o.writePins, w.name, ph.hashes, w.ops); err != nil {
			return err
		}
		fmt.Fprintf(stdout, "pins: wrote %d hashes for %s\n", w.ops, w.name)
	}
	return nil
}

// checkTablesRef requires the seed-1 pass of the tables (pin indices
// 0..13, in experiments.Names() order) to reproduce the artefact's rows.
func checkTablesRef(path string, hashes map[int]string) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	var tables []struct {
		ID, Name string
		Rows     [][]string
	}
	if err := json.Unmarshal(data, &tables); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	for k, name := range experiments.Names() {
		found := false
		for _, t := range tables {
			if t.Name != name {
				continue
			}
			found = true
			want, err := hashJSON(struct {
				ID   string
				Rows [][]string
			}{t.ID, t.Rows})
			if err != nil {
				return err
			}
			if hashes[k] != want {
				return fmt.Errorf("table %s at seed %d does not reproduce %s", name, defaultSeed, path)
			}
		}
		if !found {
			return fmt.Errorf("%s has no table %s", path, name)
		}
	}
	return nil
}
