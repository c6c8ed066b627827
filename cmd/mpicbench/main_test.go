package main

import (
	"encoding/json"
	"errors"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"mpic"
	"mpic/internal/experiments"
	"mpic/internal/gridspec"
)

func TestRunSingleExperiment(t *testing.T) {
	if err := run([]string{"-experiment", "rewind-wave", "-quick", "-trials", "1"}); err != nil {
		t.Fatal(err)
	}
}

func TestRunWritesJSON(t *testing.T) {
	path := filepath.Join(t.TempDir(), "bench.json")
	if err := run([]string{"-experiment", "rewind-wave", "-quick", "-trials", "1", "-json", path}); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var tables []struct {
		ID     string
		Header []string
		Rows   [][]string
	}
	if err := json.Unmarshal(data, &tables); err != nil {
		t.Fatalf("invalid JSON artefact: %v", err)
	}
	if len(tables) != 1 || tables[0].ID == "" || len(tables[0].Rows) == 0 {
		t.Fatalf("JSON artefact incomplete: %+v", tables)
	}
}

func TestCompareSpeedupsAndRegressions(t *testing.T) {
	mk := func(id string, ms float64) *experiments.Table {
		return &experiments.Table{ID: id, ElapsedMS: ms}
	}
	write := func(tables []*experiments.Table) string {
		data, err := json.Marshal(tables)
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(t.TempDir(), "old.json")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	// Faster or equal: fine. Missing and legacy (no timing) entries: fine.
	old := write([]*experiments.Table{mk("E-1", 200), mk("E-2", 100), mk("E-3", 0)})
	now := []*experiments.Table{mk("E-1", 100), mk("E-2", 104), mk("E-3", 80), mk("E-4", 5)}
	var out strings.Builder
	if err := compareAgainst(&out, old, now); err != nil {
		t.Fatalf("clean comparison failed: %v", err)
	}
	for _, want := range []string{"2.00×", "n/a", "new"} {
		if !strings.Contains(out.String(), want) {
			t.Fatalf("comparison table missing %q:\n%s", want, out.String())
		}
	}
	// >10% and past the noise guard: must fail.
	bad := []*experiments.Table{mk("E-1", 260), mk("E-2", 100)}
	if err := compareAgainst(io.Discard, old, bad); err == nil {
		t.Fatal("60ms/30% regression not reported")
	}
	// >10% but within the absolute noise guard: must pass. (E-1 and E-3
	// are deliberately absent from the run here, so this also exercises
	// the lost-coverage arm below before asserting it fails.)
	noisy := []*experiments.Table{mk("E-1", 210), mk("E-2", 112), mk("E-3", 1)}
	if err := compareAgainst(io.Discard, old, noisy); err != nil {
		t.Fatalf("12ms wobble failed the gate: %v", err)
	}
	// An experiment present in the old artefact but missing from the new
	// run is lost coverage and must fail the gate.
	partial := []*experiments.Table{mk("E-1", 100), mk("E-3", 1)}
	if err := compareAgainst(io.Discard, old, partial); err == nil {
		t.Fatal("missing experiment E-2 passed the gate")
	}
}

func TestRunCompareEndToEnd(t *testing.T) {
	dir := t.TempDir()
	first := filepath.Join(dir, "first.json")
	if err := run([]string{"-experiment", "rewind-wave", "-quick", "-trials", "1", "-json", first}); err != nil {
		t.Fatal(err)
	}
	second := filepath.Join(dir, "second.json")
	if err := run([]string{"-experiment", "rewind-wave", "-quick", "-trials", "1", "-json", second, "-compare", first}); err != nil {
		t.Fatalf("comparison run failed: %v", err)
	}
	data, err := os.ReadFile(second)
	if err != nil {
		t.Fatal(err)
	}
	var tables []*experiments.Table
	if err := json.Unmarshal(data, &tables); err != nil {
		t.Fatal(err)
	}
	if len(tables) != 1 || tables[0].ElapsedMS <= 0 || tables[0].Name != "rewind-wave" {
		t.Fatalf("artefact missing timing or name: %+v", tables[0])
	}
}

func TestRunUnknownExperiment(t *testing.T) {
	if err := run([]string{"-experiment", "nope"}); err == nil {
		t.Error("unknown experiment accepted")
	}
}

func TestRunSweepGrid(t *testing.T) {
	if err := run([]string{"-sweep", "-sweep-n", "4", "-sweep-schemes", "A",
		"-sweep-rates", "0,0.001", "-trials", "1", "-sweep-iterfactor", "10"}); err != nil {
		t.Fatal(err)
	}
	// An explicit rate axis with no noise model to apply it to must fail
	// instead of printing a table whose rate column silently reads 0.
	if err := run([]string{"-sweep", "-sweep-noise", "none", "-sweep-rates", "0.001"}); err == nil {
		t.Error("-sweep-rates with -sweep-noise none accepted")
	}
	// Noise "none" without an explicit rate axis is a plain noiseless grid.
	if err := run([]string{"-sweep", "-sweep-noise", "none", "-sweep-n", "4",
		"-trials", "1", "-sweep-iterfactor", "10"}); err != nil {
		t.Fatalf("noiseless sweep: %v", err)
	}
	// A fixed-topology workload with the default (empty) -sweep-topology
	// resolves to its own family, exactly like mpicsim.
	if err := run([]string{"-sweep", "-sweep-workload", "token-ring", "-sweep-n", "4,5",
		"-trials", "1", "-sweep-iterfactor", "10"}); err != nil {
		t.Fatalf("token-ring sweep with default topology: %v", err)
	}
	if err := run([]string{"-sweep", "-sweep-schemes", "Z"}); err == nil {
		t.Error("bad sweep scheme accepted")
	}
	// The experiment-mode artefact flags have no meaning on a sweep grid;
	// combining them must fail rather than silently skip the gate.
	if err := run([]string{"-sweep", "-json", "x.json"}); err == nil {
		t.Error("-json in sweep mode accepted")
	}
	if err := run([]string{"-sweep", "-compare", "x.json"}); err == nil {
		t.Error("-compare in sweep mode accepted")
	}
}

func TestRunBadFlag(t *testing.T) {
	if err := run([]string{"-definitely-not-a-flag"}); err == nil {
		t.Error("bad flag accepted")
	}
}

// TestRunRetryFlags pins the fault-tolerance knobs: -retries is valid in
// both modes (a healthy run is unaffected), -fail-fast is sweep-only,
// and a negative budget is rejected.
func TestRunRetryFlags(t *testing.T) {
	if err := run([]string{"-sweep", "-sweep-n", "4", "-sweep-rates", "0", "-trials", "1",
		"-sweep-iterfactor", "10", "-retries", "2", "-fail-fast=false"}); err != nil {
		t.Fatalf("healthy quarantine-mode sweep: %v", err)
	}
	if err := run([]string{"-experiment", "rewind-wave", "-quick", "-trials", "1", "-retries", "1"}); err != nil {
		t.Fatalf("experiment mode with -retries: %v", err)
	}
	if err := run([]string{"-experiment", "rewind-wave", "-fail-fast=false"}); err == nil ||
		!strings.Contains(err.Error(), "-sweep mode only") {
		t.Errorf("-fail-fast outside sweep mode: got %v", err)
	}
	if err := run([]string{"-retries", "-2"}); err == nil || !strings.Contains(err.Error(), "non-negative") {
		t.Errorf("negative -retries: got %v", err)
	}
}

// TestRunRepeatMedian pins the -repeat contract: the artefact carries a
// usable median timing, the flag composes with -json/-compare (cutting
// compare-gate noise is its entire purpose), and the nonsensical
// combinations are rejected.
func TestRunRepeatMedian(t *testing.T) {
	dir := t.TempDir()
	first := filepath.Join(dir, "first.json")
	if err := run([]string{"-experiment", "rewind-wave", "-quick", "-trials", "1",
		"-repeat", "3", "-json", first}); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(first)
	if err != nil {
		t.Fatal(err)
	}
	var tables []*experiments.Table
	if err := json.Unmarshal(data, &tables); err != nil {
		t.Fatal(err)
	}
	if len(tables) != 1 || tables[0].ElapsedMS <= 0 || tables[0].Allocs == 0 {
		t.Fatalf("repeated artefact missing median stamps: %+v", tables[0])
	}
	// The whole point: -repeat feeds the -compare gate.
	if err := run([]string{"-experiment", "rewind-wave", "-quick", "-trials", "1",
		"-repeat", "2", "-compare", first}); err != nil {
		t.Fatalf("repeated comparison run failed: %v", err)
	}
	if err := run([]string{"-repeat", "0"}); err == nil || !strings.Contains(err.Error(), "at least 1") {
		t.Errorf("-repeat 0: got %v", err)
	}
	if err := run([]string{"-sweep", "-repeat", "2"}); err == nil {
		t.Error("-repeat in sweep mode accepted")
	}
	if err := run([]string{"-experiment", "rewind-wave", "-repeat", "2",
		"-checkpoint", dir}); err == nil || !strings.Contains(err.Error(), "replays") {
		t.Errorf("-repeat with -checkpoint: got %v", err)
	}
}

// TestMedianTables pins the aggregation itself: odd counts take the
// middle run, even counts the midpoint of the middle two, and the rows
// come from the first run untouched.
func TestMedianTables(t *testing.T) {
	mk := func(ms float64, allocs uint64) []*experiments.Table {
		return []*experiments.Table{{ID: "E-1", Rows: [][]string{{"r"}}, ElapsedMS: ms, Allocs: allocs}}
	}
	odd := medianTables([][]*experiments.Table{mk(90, 10), mk(500, 70), mk(100, 30)})
	if odd[0].ElapsedMS != 100 || odd[0].Allocs != 30 {
		t.Fatalf("odd median = %.1fms/%d allocs, want 100/30", odd[0].ElapsedMS, odd[0].Allocs)
	}
	if len(odd[0].Rows) != 1 {
		t.Fatalf("median dropped the rows: %+v", odd[0])
	}
	even := medianTables([][]*experiments.Table{mk(100, 20), mk(200, 40)})
	if even[0].ElapsedMS != 150 || even[0].Allocs != 30 {
		t.Fatalf("even median = %.1fms/%d allocs, want 150/30", even[0].ElapsedMS, even[0].Allocs)
	}
	single := medianTables([][]*experiments.Table{mk(42, 7)})
	if single[0].ElapsedMS != 42 || single[0].Allocs != 7 {
		t.Fatalf("repeat=1 must pass through: %+v", single[0])
	}
}

// TestRunProfileFlags pins the pprof satellites: both profiles land on
// disk non-empty, and — like -checkpoint — they refuse to stamp the
// -json/-compare artefact path with profiler-skewed timings.
func TestRunProfileFlags(t *testing.T) {
	dir := t.TempDir()
	cpu := filepath.Join(dir, "cpu.pprof")
	mem := filepath.Join(dir, "mem.pprof")
	if err := run([]string{"-experiment", "rewind-wave", "-quick", "-trials", "1",
		"-cpuprofile", cpu, "-memprofile", mem}); err != nil {
		t.Fatal(err)
	}
	for _, p := range []string{cpu, mem} {
		st, err := os.Stat(p)
		if err != nil {
			t.Fatalf("profile not written: %v", err)
		}
		if st.Size() == 0 {
			t.Fatalf("profile %s is empty", p)
		}
	}
	for _, extra := range [][]string{
		{"-cpuprofile", cpu, "-json", filepath.Join(dir, "x.json")},
		{"-memprofile", mem, "-compare", "BENCH_PR9.json"},
	} {
		args := append([]string{"-experiment", "rewind-wave", "-quick", "-trials", "1"}, extra...)
		if err := run(args); err == nil || !strings.Contains(err.Error(), "skews") {
			t.Errorf("%v: got %v, want profiling rejection", extra, err)
		}
	}
	if err := run([]string{"-sweep", "-cpuprofile", cpu}); err == nil {
		t.Error("-cpuprofile in sweep mode accepted")
	}
	if err := run([]string{"-sweep", "-memprofile", mem}); err == nil {
		t.Error("-memprofile in sweep mode accepted")
	}
}

// failWireNoise is a rate-parameterized noise family whose wiring
// always errors — it drives the sweep sink's failure path without
// touching the engine.
type failWireNoise struct{ rate float64 }

func (failWireNoise) NoiseName() string                   { return "bench-test-failwire" }
func (f failWireNoise) WithRate(r float64) mpic.NoiseSpec { return failWireNoise{rate: r} }
func (failWireNoise) Wire(mpic.NoiseEnv) (mpic.WiredNoise, error) {
	return mpic.WiredNoise{}, errors.New("injected wiring failure")
}

// TestRunSweepQuarantineOutput drives the failure path through the
// sweep sink: every cell's wiring errors, quarantine mode prints ERROR
// markdown rows plus the quarantine note, and runSweep returns the
// *mpic.GridFailure that main maps to exit code 3.
func TestRunSweepQuarantineOutput(t *testing.T) {
	if err := mpic.RegisterNoise("bench-test-failwire", func(rate float64) mpic.NoiseSpec {
		return failWireNoise{rate: rate}
	}); err != nil {
		t.Fatal(err)
	}
	f := sweepTestFlags("")
	f.Noise = "bench-test-failwire"
	f.retries = 1
	f.failFast = false
	var out strings.Builder
	err := runSweep(&out, f)
	var gf *mpic.GridFailure
	if !errors.As(err, &gf) {
		t.Fatalf("quarantined sweep returned %v, want *mpic.GridFailure", err)
	}
	if len(gf.Report.Failed) != 2 {
		t.Fatalf("report lists %d failed cells, want 2", len(gf.Report.Failed))
	}
	for _, want := range []string{
		"ERROR | — | — | after 2 attempt(s)",
		"injected wiring failure",
		"quarantined 2 of 2 cells",
	} {
		if !strings.Contains(out.String(), want) {
			t.Fatalf("output missing %q:\n%s", want, out.String())
		}
	}
}

// sweepTestFlags mirrors the flag defaults of run() for direct runSweep
// calls (which let tests capture the streamed output).
func sweepTestFlags(checkpoint string) sweepFlags {
	return sweepFlags{
		Grid: gridspec.Grid{
			Workload: "random", Noise: "random",
			N: "4", Schemes: "A", Rates: "0,0.001",
			IterFactor: 10, Trials: 1, Seed: 1,
		},
		ratesSet: true, parallel: 1, checkpoint: checkpoint, failFast: true,
	}
}

// rowLines extracts the markdown data rows from a streamed sweep output.
func rowLines(out string) []string {
	var rows []string
	for _, line := range strings.Split(out, "\n") {
		if strings.HasPrefix(line, "| ") && !strings.HasPrefix(line, "| n |") {
			rows = append(rows, line)
		}
	}
	return rows
}

// TestSweepCheckpointResume pins the resumable-grid contract, now served
// by the library's durable-session layer (mpic.FileGridStore): a partial
// checkpoint restores its cells without re-running them, the engine
// executes only the missing cells, and the merged output matches a fresh
// full run row for row.
func TestSweepCheckpointResume(t *testing.T) {
	dir := t.TempDir()
	full := filepath.Join(dir, "full.json")

	// A complete run: every cell lands in the checkpoint.
	var fresh strings.Builder
	if err := runSweep(&fresh, sweepTestFlags(full)); err != nil {
		t.Fatal(err)
	}
	version, spec := checkpointHeader(t, full)
	cells, err := mpic.NewFileGridStore(full).Load(spec)
	if err != nil {
		t.Fatal(err)
	}
	if version != 4 || spec == "" || len(cells) != 2 {
		t.Fatalf("full checkpoint has version %d, spec %q and %d cells, want v4 with 2 cells",
			version, spec, len(cells))
	}

	// Simulate an interruption: save only the first cell to a new session
	// file and resume from it. The partial file goes through the store API
	// so it carries valid checksums — a hand-edited file would (correctly)
	// be treated as corrupt.
	partial := filepath.Join(dir, "partial.json")
	if err := mpic.NewFileGridStore(partial).Save(spec, cells[:1]); err != nil {
		t.Fatal(err)
	}
	var resumed strings.Builder
	if err := runSweep(&resumed, sweepTestFlags(partial)); err != nil {
		t.Fatalf("resume failed: %v", err)
	}
	if !strings.Contains(resumed.String(), "restored 1 of 2 cells") {
		t.Fatalf("resume output missing restore note:\n%s", resumed.String())
	}
	freshRows, resumedRows := rowLines(fresh.String()), rowLines(resumed.String())
	if len(resumedRows) != len(freshRows) {
		t.Fatalf("resumed run printed %d rows, fresh run %d", len(resumedRows), len(freshRows))
	}
	for i := range freshRows {
		if freshRows[i] != resumedRows[i] {
			t.Errorf("row %d differs after resume:\nfresh:   %s\nresumed: %s", i, freshRows[i], resumedRows[i])
		}
	}
	// The resumed run completed the checkpoint back to all cells.
	if cells, err = mpic.NewFileGridStore(partial).Load(spec); err != nil || len(cells) != 2 {
		t.Fatalf("resumed checkpoint has %d cells (%v), want 2", len(cells), err)
	}

	// A fully checkpointed grid restores everything and runs nothing.
	var done strings.Builder
	if err := runSweep(&done, sweepTestFlags(partial)); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(done.String(), "restored 2 of 2 cells") {
		t.Fatalf("complete checkpoint not fully restored:\n%s", done.String())
	}

	// A checkpoint written by different grid flags must be rejected, not
	// silently merged.
	other := sweepTestFlags(partial)
	other.Rates = "0,0.002"
	if err := runSweep(io.Discard, other); err == nil || !strings.Contains(err.Error(), "different grid") {
		t.Fatalf("mismatched checkpoint spec accepted: %v", err)
	}
}

// checkpointHeader reads the format version and spec from the header
// line of a session journal.
func checkpointHeader(t *testing.T, path string) (version int, spec string) {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	line, _, _ := strings.Cut(string(data), "\n")
	var header struct {
		Version int
		Spec    string
	}
	if err := json.Unmarshal([]byte(line), &header); err != nil {
		t.Fatal(err)
	}
	return header.Version, header.Spec
}

// TestSweepCheckpointVersionRejected pins the format-versioning
// contract: a pre-session checkpoint (the shape this command used to
// write itself) is refused with a clear message instead of being
// misread.
func TestSweepCheckpointVersionRejected(t *testing.T) {
	path := filepath.Join(t.TempDir(), "old.json")
	legacy := `{"Spec": "anything", "Cells": []}`
	if err := os.WriteFile(path, []byte(legacy), 0o644); err != nil {
		t.Fatal(err)
	}
	err := runSweep(io.Discard, sweepTestFlags(path))
	if err == nil || !strings.Contains(err.Error(), "format version") {
		t.Fatalf("legacy checkpoint accepted: %v", err)
	}
}

// TestRunExperimentCheckpoint exercises the experiment-mode -checkpoint
// flag: grids persist per-fingerprint session files into the directory,
// and a second run resumes from them without error. (Row-level
// resume identity is pinned in internal/experiments.)
func TestRunExperimentCheckpoint(t *testing.T) {
	dir := t.TempDir()
	args := []string{"-experiment", "cc-noise", "-quick", "-trials", "1", "-checkpoint", dir}
	if err := run(args); err != nil {
		t.Fatal(err)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) == 0 {
		t.Fatal("experiment checkpoint directory left empty")
	}
	if err := run(args); err != nil {
		t.Fatalf("checkpointed re-run failed: %v", err)
	}
	// The flag belongs to experiment mode; a sweep grid uses
	// -sweep-checkpoint instead.
	if err := run([]string{"-sweep", "-checkpoint", dir}); err == nil {
		t.Error("-checkpoint in sweep mode accepted")
	}
	// Resumed tables replay with near-zero ElapsedMS; letting them feed
	// the -json artefact or the -compare gate would poison the baseline
	// / fake a speedup.
	if err := run(append(args, "-json", filepath.Join(dir, "x.json"))); err == nil {
		t.Error("-checkpoint with -json accepted")
	}
	if err := run(append(args, "-compare", "BENCH_PR4.json")); err == nil {
		t.Error("-checkpoint with -compare accepted")
	}
}

// TestRunSweepParallelAndCheckpointFlags exercises the new flags through
// the real flag parser.
func TestRunSweepParallelAndCheckpointFlags(t *testing.T) {
	ck := filepath.Join(t.TempDir(), "ck.json")
	if err := run([]string{"-sweep", "-sweep-n", "4", "-sweep-schemes", "A",
		"-sweep-rates", "0,0.001", "-trials", "1", "-sweep-iterfactor", "10",
		"-parallel", "2", "-sweep-checkpoint", ck}); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(ck); err != nil {
		t.Fatalf("checkpoint not written: %v", err)
	}
}
