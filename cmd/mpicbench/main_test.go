package main

import (
	"encoding/json"
	"errors"
	"io"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"mpic"
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

func TestRunUnknownExperiment(t *testing.T) {
	if err := run([]string{"-experiment", "nope"}); err == nil {
		t.Error("unknown experiment accepted")
	}
}

// specFile writes a grid spec to a fresh file and returns its path.
func specFile(t *testing.T, body string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "grid.json")
	if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// captureStdout runs f with os.Stdout redirected to a file and returns
// what it printed there.
func captureStdout(t *testing.T, f func()) string { return capture(t, &os.Stdout, f) }

// capture runs f with *std (os.Stdout or os.Stderr) redirected to a file
// and returns what it printed there.
func capture(t *testing.T, std **os.File, f func()) string {
	t.Helper()
	tmp, err := os.Create(filepath.Join(t.TempDir(), "out"))
	if err != nil {
		t.Fatal(err)
	}
	defer tmp.Close()
	old := *std
	*std = tmp
	defer func() { *std = old }()
	f()
	data, err := os.ReadFile(tmp.Name())
	if err != nil {
		t.Fatal(err)
	}
	return string(data)
}

func TestRunSweepGrid(t *testing.T) {
	if err := run([]string{"-grid", specFile(t, `{"n":"4","schemes":"A","rates":"0,0.001","trials":1,"iterfactor":10}`)}); err != nil {
		t.Fatal(err)
	}
	// An explicit rate axis with no noise model to apply it to must fail
	// instead of printing a table whose rate column silently reads 0.
	if err := run([]string{"-grid", specFile(t, `{"noise":"none","rates":"0.001"}`)}); err == nil {
		t.Error("rates with noise none accepted")
	}
	// Noise "none" without an explicit rate axis is a plain noiseless grid.
	if err := run([]string{"-grid", specFile(t, `{"noise":"none","n":"4","trials":1,"iterfactor":10}`)}); err != nil {
		t.Fatalf("noiseless grid: %v", err)
	}
	// A fixed-topology workload with the default (empty) topology
	// resolves to its own family, exactly like mpicsim.
	if err := run([]string{"-grid", specFile(t, `{"workload":"token-ring","n":"4,5","trials":1,"iterfactor":10}`)}); err != nil {
		t.Fatalf("token-ring grid with default topology: %v", err)
	}
	if err := run([]string{"-grid", specFile(t, `{"schemes":"Z"}`)}); err == nil {
		t.Error("bad grid scheme accepted")
	}
	// The experiment-mode artefact flag has no meaning on a grid;
	// combining the two must fail rather than silently skip the artefact.
	if err := run([]string{"-grid", specFile(t, `{}`), "-json", "x.json"}); err == nil {
		t.Error("-json in grid mode accepted")
	}
	// The spec file is read as strictly as mpicserve reads a POST body.
	for body, want := range map[string]string{
		`{"nope":"x"}`:       "unknown field",
		`{"n":"4"}{"n":"6"}`: "data after the spec object",
		`{"n":"4"`:           "unexpected EOF",
	} {
		if err := run([]string{"-grid", specFile(t, body)}); err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("spec %s: got %v, want an error containing %q", body, err, want)
		}
	}
	if err := run([]string{"-grid", filepath.Join(t.TempDir(), "missing.json")}); err == nil {
		t.Error("missing spec file accepted")
	}
}

// TestRunHelp pins that -h prints the usage on the flag set's output
// (stderr) and succeeds, so the process exits 0.
func TestRunHelp(t *testing.T) {
	var err error
	out := capture(t, &os.Stderr, func() { err = run([]string{"-h"}) })
	if err != nil {
		t.Fatalf("-h: %v", err)
	}
	if !strings.Contains(out, "Usage of mpicbench") || !strings.Contains(out, "-grid") {
		t.Errorf("-h printed %q, want the usage", out)
	}
}

func TestRunBadFlag(t *testing.T) {
	if err := run([]string{"-definitely-not-a-flag"}); err == nil {
		t.Error("bad flag accepted")
	}
	// Timing the tables is the repo benchmark's job (bench/), so
	// mpicbench defines no timing or profiling flags.
	for _, fl := range []string{"-compare", "-repeat", "-cpuprofile", "-memprofile"} {
		if err := run([]string{fl, "x"}); err == nil || !strings.Contains(err.Error(), "not defined") {
			t.Errorf("%s: got %v, want an unknown-flag error", fl, err)
		}
	}
}

// TestRunRetryFlags pins the fault-tolerance knobs: -retries is valid in
// both modes (a healthy run is unaffected), -fail-fast is grid-only,
// and a negative budget is rejected.
func TestRunRetryFlags(t *testing.T) {
	if err := run([]string{"-grid", specFile(t, `{"n":"4","rates":"0","trials":1,"iterfactor":10}`),
		"-retries", "2", "-fail-fast=false"}); err != nil {
		t.Fatalf("healthy quarantine-mode grid: %v", err)
	}
	if err := run([]string{"-experiment", "rewind-wave", "-quick", "-trials", "1", "-retries", "1"}); err != nil {
		t.Fatalf("experiment mode with -retries: %v", err)
	}
	if err := run([]string{"-experiment", "rewind-wave", "-fail-fast=false"}); err == nil ||
		!strings.Contains(err.Error(), "-fail-fast does not apply in experiment mode") {
		t.Errorf("-fail-fast outside grid mode: got %v", err)
	}
	if err := run([]string{"-retries", "-2"}); err == nil || !strings.Contains(err.Error(), "non-negative") {
		t.Errorf("negative -retries: got %v", err)
	}
}

// TestRunRejectsTrialsBelowOne pins that a trial count below 1, which
// no setting means, is refused in both modes before anything runs: no
// table is computed and no checkpoint is opened. In grid mode the count
// is the spec's (an omitted or zero one is the default, 10), and the
// -trials flag is an experiment-mode flag.
func TestRunRejectsTrialsBelowOne(t *testing.T) {
	dir := t.TempDir()
	ckpt := filepath.Join(dir, "ckpt")
	gridCkpt := filepath.Join(dir, "grid.ckpt.json")
	for _, tc := range []struct {
		args []string
		want string
	}{
		{[]string{"-experiment", "rewind-wave", "-quick", "-trials", "0", "-checkpoint", ckpt}, "-trials must be at least 1"},
		{[]string{"-experiment", "rewind-wave", "-quick", "-trials", "-3", "-checkpoint", ckpt}, "-trials must be at least 1"},
		{[]string{"-grid", specFile(t, `{"n":"4"}`), "-trials", "0", "-checkpoint", gridCkpt}, "-trials does not apply in grid mode"},
		{[]string{"-grid", specFile(t, `{"n":"4","trials":-2}`), "-checkpoint", gridCkpt}, "trials: must be non-negative"},
	} {
		if err := run(tc.args); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%v: got %v, want an error containing %q", tc.args, err, tc.want)
		}
	}
	for _, path := range []string{ckpt, gridCkpt} {
		if _, err := os.Stat(path); !os.IsNotExist(err) {
			t.Errorf("rejected -trials still created %s (stat: %v)", path, err)
		}
	}
}

// TestRunExperimentRejectsSweepFlags pins that each mode refuses the
// flags of the other instead of dropping them: experiment mode the
// grid-only -parallel, -fail-fast and -grid, grid mode the
// experiment-only flags (its trials and seed are spec fields). A
// rejected run prints nothing and leaves the -checkpoint it was given
// unwritten, and so does a negative -parallel, which once printed the
// table header and then failed in the engine.
func TestRunExperimentRejectsSweepFlags(t *testing.T) {
	ck := filepath.Join(t.TempDir(), "ck")
	spec := specFile(t, `{"n":"4","rates":"0","trials":1,"iterfactor":10}`)
	experiment := []string{"-experiment", "rewind-wave", "-quick", "-trials", "1", "-checkpoint", ck}
	for _, tc := range []struct {
		args []string
		want string
	}{
		{append(experiment, "-parallel", "2"), "-parallel does not apply in experiment mode"},
		{append(experiment, "-fail-fast=false"), "-fail-fast does not apply in experiment mode"},
		{append(experiment, "-grid", ""), "-grid does not apply in experiment mode"},
		{[]string{"-grid", spec, "-checkpoint", ck, "-json", "x.json"}, "-json does not apply in grid mode"},
		{[]string{"-grid", spec, "-checkpoint", ck, "-experiment", "table1"}, "-experiment does not apply in grid mode"},
		{[]string{"-grid", spec, "-checkpoint", ck, "-quick"}, "-quick does not apply in grid mode"},
		{[]string{"-grid", spec, "-checkpoint", ck, "-seed", "2"}, "-seed does not apply in grid mode"},
		{[]string{"-grid", spec, "-checkpoint", ck, "-parallel", "-1"}, "-parallel must be non-negative"},
	} {
		var err error
		out := captureStdout(t, func() { err = run(tc.args) })
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%v: got %v, want an error containing %q", tc.args, err, tc.want)
		}
		if out != "" {
			t.Errorf("%v: rejected run printed %q", tc.args, out)
		}
	}
	if _, err := os.Stat(ck); !os.IsNotExist(err) {
		t.Errorf("rejected run still created %s (stat: %v)", ck, err)
	}
}

// failWireNoise is a rate-parameterized noise family whose wiring
// always errors — it drives the grid sink's failure path without
// touching the engine.
type failWireNoise struct{ rate float64 }

func (failWireNoise) NoiseName() string                   { return "bench-test-failwire" }
func (f failWireNoise) WithRate(r float64) mpic.NoiseSpec { return failWireNoise{rate: r} }
func (failWireNoise) Wire(mpic.NoiseEnv) (mpic.WiredNoise, error) {
	return mpic.WiredNoise{}, errors.New("injected wiring failure")
}

// TestRunSweepQuarantineOutput drives the failure path through the
// grid sink: every cell's wiring errors, quarantine mode prints ERROR
// markdown rows plus the quarantine note, and runGrid returns the
// *mpic.GridFailure that main maps to exit code 3.
func TestRunSweepQuarantineOutput(t *testing.T) {
	if err := mpic.RegisterNoise("bench-test-failwire", func(rate float64) mpic.NoiseSpec {
		return failWireNoise{rate: rate}
	}); err != nil {
		t.Fatal(err)
	}
	spec := gridTestSpec()
	spec.Noise = "bench-test-failwire"
	r := gridTestRun("")
	r.retries = 1
	r.failFast = false
	var out strings.Builder
	err := runGrid(&out, spec, r)
	var gf *mpic.GridFailure
	if !errors.As(err, &gf) {
		t.Fatalf("quarantined grid returned %v, want *mpic.GridFailure", err)
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

// gridTestSpec is a small two-cell grid as a decoded spec file holds it,
// for direct runGrid calls (which let tests capture the streamed output).
func gridTestSpec() gridspec.Grid {
	return gridspec.Grid{N: "4", Rates: "0,0.001", IterFactor: 10, Trials: 1}
}

// gridTestRun is the grid-mode flag set of run()'s defaults, with one
// worker so rows stream in definition order.
func gridTestRun(checkpoint string) gridRun {
	return gridRun{checkpoint: checkpoint, parallel: 1, failFast: true}
}

// rowLines extracts the markdown data rows from a streamed grid output.
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
	if err := runGrid(&fresh, gridTestSpec(), gridTestRun(full)); err != nil {
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
	if err := runGrid(&resumed, gridTestSpec(), gridTestRun(partial)); err != nil {
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
	if err := runGrid(&done, gridTestSpec(), gridTestRun(partial)); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(done.String(), "restored 2 of 2 cells") {
		t.Fatalf("complete checkpoint not fully restored:\n%s", done.String())
	}

	// A checkpoint written by a different grid must be rejected, not
	// silently merged.
	other := gridTestSpec()
	other.Rates = "0,0.002"
	if err := runGrid(io.Discard, other, gridTestRun(partial)); err == nil || !strings.Contains(err.Error(), "different grid") {
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
	err := runGrid(io.Discard, gridTestSpec(), gridTestRun(path))
	if err == nil || !strings.Contains(err.Error(), "format version") {
		t.Fatalf("legacy checkpoint accepted: %v", err)
	}
}

// TestRunExperimentCheckpoint exercises the experiment-mode -checkpoint
// flag: grids persist per-fingerprint session files into the directory,
// and a fresh run, a first checkpointed run and a resumed one write
// byte-identical -json artefacts. (Row-level resume identity after an
// interruption is pinned in internal/experiments.)
func TestRunExperimentCheckpoint(t *testing.T) {
	dir := t.TempDir()
	ckpt := filepath.Join(dir, "ckpt")
	base := []string{"-experiment", "cc-noise", "-quick", "-trials", "1"}
	artefact := func(name string, extra ...string) []byte {
		t.Helper()
		path := filepath.Join(dir, name)
		if err := run(append(append(append([]string(nil), base...), extra...), "-json", path)); err != nil {
			t.Fatalf("%s run: %v", name, err)
		}
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		return data
	}
	fresh := artefact("fresh.json")
	first := artefact("first.json", "-checkpoint", ckpt)
	entries, err := os.ReadDir(ckpt)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) == 0 {
		t.Fatal("experiment checkpoint directory left empty")
	}
	resumed := artefact("resumed.json", "-checkpoint", ckpt)
	if string(first) != string(fresh) || string(resumed) != string(fresh) {
		t.Fatalf("artefacts differ:\nfresh:   %s\nfirst:   %s\nresumed: %s", fresh, first, resumed)
	}
	// In grid mode the flag names a session journal file, not a
	// directory of them.
	spec := specFile(t, `{"n":"4","rates":"0","trials":1,"iterfactor":10}`)
	if err := run([]string{"-grid", spec, "-checkpoint", dir}); err == nil {
		t.Error("a directory as the grid-mode -checkpoint accepted")
	}
}

// TestRunSweepParallelAndCheckpointFlags exercises the grid-mode flags
// through the real flag parser.
func TestRunSweepParallelAndCheckpointFlags(t *testing.T) {
	ck := filepath.Join(t.TempDir(), "ck.json")
	spec := specFile(t, `{"n":"4","schemes":"A","rates":"0,0.001","trials":1,"iterfactor":10}`)
	if err := run([]string{"-grid", spec, "-parallel", "2", "-checkpoint", ck}); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(ck); err != nil {
		t.Fatalf("checkpoint not written: %v", err)
	}
}

// TestGridResumesSweepEraJournal pins compatibility with the session
// journals the retired `mpicbench -sweep -sweep-checkpoint FILE` wrote:
// testdata/sweep-era.journal is one, written by `-sweep -sweep-n 4
// -sweep-rates 0,0.001 -trials 1 -sweep-iterfactor 10`, and
// testdata/sweep-era.json is the same grid as a spec. Its fingerprint is
// the journal's, so -grid restores every cell, runs none, and prints
// the rows of a fresh run.
func TestGridResumesSweepEraJournal(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("testdata", "sweep-era.journal"))
	if err != nil {
		t.Fatal(err)
	}
	journal := filepath.Join(t.TempDir(), "sweep-era.journal")
	if err := os.WriteFile(journal, data, 0o644); err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(filepath.Join("testdata", "sweep-era.json"))
	if err != nil {
		t.Fatal(err)
	}
	spec, err := gridspec.Decode(f)
	f.Close()
	if err != nil {
		t.Fatal(err)
	}
	if _, want := checkpointHeader(t, journal); spec.Normalize().Spec() != want {
		t.Fatalf("spec fingerprint %q, journal %q", spec.Normalize().Spec(), want)
	}

	var resumed, fresh strings.Builder
	if err := runGrid(&resumed, spec, gridTestRun(journal)); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(resumed.String(), "restored 2 of 2 cells") {
		t.Fatalf("sweep-era journal not fully restored:\n%s", resumed.String())
	}
	// Nothing re-ran: the engine saves each fresh cell, and the journal
	// gained no line.
	if after, err := os.ReadFile(journal); err != nil || string(after) != string(data) {
		t.Fatalf("resume changed the journal (%v):\n%s", err, after)
	}
	if err := runGrid(&fresh, spec, gridTestRun("")); err != nil {
		t.Fatal(err)
	}
	freshRows, resumedRows := rowLines(fresh.String()), rowLines(resumed.String())
	slices.Sort(freshRows)
	slices.Sort(resumedRows)
	if len(freshRows) != 2 || !slices.Equal(freshRows, resumedRows) {
		t.Fatalf("restored rows differ from a fresh run:\nfresh:   %q\nresumed: %q", freshRows, resumedRows)
	}
}
