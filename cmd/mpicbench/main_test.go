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
	// The experiment-mode artefact flag has no meaning on a sweep grid;
	// combining the two must fail rather than silently skip the artefact.
	if err := run([]string{"-sweep", "-json", "x.json"}); err == nil {
		t.Error("-json in sweep mode accepted")
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

// TestRunExperimentRejectsSweepFlags pins that experiment mode refuses
// the grid flags it would otherwise drop: -parallel and every -sweep-*
// flag. A -sweep-checkpoint given there must not leave the run looking
// checkpointed while writing nothing.
func TestRunExperimentRejectsSweepFlags(t *testing.T) {
	ck := filepath.Join(t.TempDir(), "ck")
	for _, args := range [][]string{
		{"-parallel", "2"},
		{"-sweep-checkpoint", ck},
		{"-sweep-n", "4"},
		{"-sweep-rates", "0"},
		{"-sweep-hashmode", "legacy"},
	} {
		err := run(append([]string{"-experiment", "rewind-wave", "-quick", "-trials", "1"}, args...))
		if err == nil || !strings.Contains(err.Error(), "-sweep mode only") {
			t.Errorf("experiment mode with %v: got %v, want a sweep-only error", args, err)
		}
	}
	if _, err := os.Stat(ck); !os.IsNotExist(err) {
		t.Errorf("rejected -sweep-checkpoint still created %s (stat: %v)", ck, err)
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
	// The flag belongs to experiment mode; a sweep grid uses
	// -sweep-checkpoint instead.
	if err := run([]string{"-sweep", "-checkpoint", dir}); err == nil {
		t.Error("-checkpoint in sweep mode accepted")
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
