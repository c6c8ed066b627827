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
)

func TestRunBasic(t *testing.T) {
	err := run(io.Discard, []string{"-topology", "line", "-n", "4", "-scheme", "A",
		"-iterfactor", "20", "-seed", "3"})
	if err != nil {
		t.Fatal(err)
	}
}

func TestRunJSON(t *testing.T) {
	err := run(io.Discard, []string{"-n", "4", "-scheme", "1", "-iterfactor", "10", "-json"})
	if err != nil {
		t.Fatal(err)
	}
}

func TestRunNoisy(t *testing.T) {
	err := run(io.Discard, []string{"-n", "4", "-scheme", "B", "-noise", "adaptive",
		"-rate", "0.0005", "-iterfactor", "40"})
	if err != nil {
		t.Fatal(err)
	}
}

// Fixed-topology workloads pick their own topology when -topology is
// left at its "" default, and reject a conflicting explicit one.
func TestRunFixedTopologyWorkload(t *testing.T) {
	if err := run(io.Discard, []string{"-workload", "token-ring", "-n", "5", "-iterfactor", "20", "-seed", "5"}); err != nil {
		t.Fatalf("token-ring with default topology: %v", err)
	}
	if err := run(io.Discard, []string{"-workload", "token-ring", "-topology", "line", "-n", "5"}); err == nil {
		t.Error("conflicting explicit topology accepted")
	}
}

func TestRunErrors(t *testing.T) {
	if err := run(io.Discard, []string{"-scheme", "Z"}); err == nil {
		t.Error("bad scheme accepted")
	}
	if err := run(io.Discard, []string{"-topology", "moebius"}); err == nil {
		t.Error("bad topology accepted")
	}
	if err := run(io.Discard, []string{"-badflag"}); err == nil {
		t.Error("bad flag accepted")
	}
}

// TestRunHelp pins that -h prints the usage on the flag set's output
// (stderr) and succeeds, so the process exits 0.
func TestRunHelp(t *testing.T) {
	var err error
	out := captureStderr(t, func() { err = run(io.Discard, []string{"-h"}) })
	if err != nil {
		t.Fatalf("-h: %v", err)
	}
	if !strings.Contains(out, "Usage of mpicsim") || !strings.Contains(out, "-topology") {
		t.Errorf("-h printed %q, want the usage", out)
	}
}

// captureStderr runs f with os.Stderr redirected to a file and returns
// what it printed there.
func captureStderr(t *testing.T, f func()) string {
	t.Helper()
	tmp, err := os.Create(filepath.Join(t.TempDir(), "stderr"))
	if err != nil {
		t.Fatal(err)
	}
	defer tmp.Close()
	old := os.Stderr
	os.Stderr = tmp
	defer func() { os.Stderr = old }()
	f()
	data, err := os.ReadFile(tmp.Name())
	if err != nil {
		t.Fatal(err)
	}
	return string(data)
}

func TestParseScheme(t *testing.T) {
	for _, s := range []string{"1", "A", "a", "B", "b", "C", "c"} {
		if _, err := mpic.ParseScheme(s); err != nil {
			t.Errorf("ParseScheme(%q): %v", s, err)
		}
	}
	if _, err := mpic.ParseScheme("D"); err == nil {
		t.Error("ParseScheme accepted D")
	}
}

// TestRunTrialsGrid exercises the multi-seed grid mode: trials stream
// through the engine (any worker count), -trace is rejected, and the
// JSON aggregate path works.
func TestRunTrialsGrid(t *testing.T) {
	if err := run(io.Discard, []string{"-topology", "line", "-n", "4", "-iterfactor", "10",
		"-trials", "3", "-workers", "2"}); err != nil {
		t.Fatal(err)
	}
	if err := run(io.Discard, []string{"-topology", "line", "-n", "4", "-iterfactor", "10",
		"-trials", "2", "-json"}); err != nil {
		t.Fatal(err)
	}
	if err := run(io.Discard, []string{"-topology", "line", "-n", "4", "-trials", "2", "-trace"}); err == nil {
		t.Error("-trace with -trials accepted")
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

// TestRunTrialsCheckpointResume pins the durable trial grid: a full run
// writes the session file, a truncated session resumes the missing
// trials, and the resumed output is line-identical to the fresh run.
func TestRunTrialsCheckpointResume(t *testing.T) {
	ck := filepath.Join(t.TempDir(), "trials.ckpt.json")
	// Workers pinned to 1 so completion order (the printed line order)
	// is definition order in both runs; the cells themselves are
	// bit-identical at any worker count.
	args := []string{"-topology", "line", "-n", "4", "-iterfactor", "10",
		"-trials", "3", "-workers", "1", "-checkpoint", ck}

	var fresh strings.Builder
	if err := run(&fresh, args); err != nil {
		t.Fatal(err)
	}
	version, spec := checkpointHeader(t, ck)
	cells, err := mpic.NewFileGridStore(ck).Load(spec)
	if err != nil {
		t.Fatal(err)
	}
	if version != 4 || spec == "" || len(cells) != 3 {
		t.Fatalf("checkpoint state = version %d, spec %q, %d cells; want v4 with 3 cells",
			version, spec, len(cells))
	}

	// Simulate an interruption: rewrite the session with the first two
	// trials only and resume. The rewrite goes through the store API so
	// the new file carries valid checksums — a hand-edited file would
	// (correctly) be treated as corrupt.
	if err := os.Remove(ck); err != nil {
		t.Fatal(err)
	}
	if err := mpic.NewFileGridStore(ck).Save(spec, cells[:2]); err != nil {
		t.Fatal(err)
	}
	var resumed strings.Builder
	if err := run(&resumed, args); err != nil {
		t.Fatalf("resume failed: %v", err)
	}
	if !strings.Contains(resumed.String(), "restored 2 of 3 trials") {
		t.Fatalf("resume output missing restore note:\n%s", resumed.String())
	}
	// Trial lines and the aggregate must be bit-identical; the resumed
	// run then appends its restore note.
	freshLines := strings.Split(strings.TrimRight(fresh.String(), "\n"), "\n")
	resumedLines := strings.Split(strings.TrimRight(resumed.String(), "\n"), "\n")
	if len(resumedLines) != len(freshLines)+1 {
		t.Fatalf("resumed run printed %d lines, fresh %d (want fresh+1)", len(resumedLines), len(freshLines))
	}
	for i, line := range freshLines {
		if resumedLines[i] != line {
			t.Fatalf("line %d differs after resume:\nfresh:   %q\nresumed: %q", i, line, resumedLines[i])
		}
	}

	// A different grid (another seed) must reject the session file.
	other := []string{"-topology", "line", "-n", "4", "-iterfactor", "10",
		"-trials", "3", "-seed", "9", "-checkpoint", ck}
	if err := run(io.Discard, other); err == nil || !strings.Contains(err.Error(), "different grid") {
		t.Fatalf("mismatched checkpoint accepted: %v", err)
	}

	// -checkpoint without a trial grid has nothing to resume.
	if err := run(io.Discard, []string{"-topology", "line", "-n", "4", "-checkpoint", ck}); err == nil {
		t.Error("-checkpoint without -trials accepted")
	}
}

// TestRunTrialsQuarantineOutput drives the failure path through the
// CLI sink: a registered noise family whose wiring always errors makes
// every trial fail, the sink prints ERROR lines and the quarantine
// note, and run returns the *mpic.GridFailure that main maps to exit
// code 3.
func TestRunTrialsQuarantineOutput(t *testing.T) {
	if err := mpic.RegisterNoise("sim-test-failwire", func(rate float64) mpic.NoiseSpec {
		return mpic.NoiseFunc("sim-test-failwire", func(mpic.NoiseEnv) (mpic.WiredNoise, error) {
			return mpic.WiredNoise{}, errors.New("injected wiring failure")
		})
	}); err != nil {
		t.Fatal(err)
	}
	var out strings.Builder
	err := run(&out, []string{"-topology", "line", "-n", "4", "-iterfactor", "10",
		"-noise", "sim-test-failwire", "-rate", "0.001",
		"-trials", "2", "-retries", "1"})
	var gf *mpic.GridFailure
	if !errors.As(err, &gf) {
		t.Fatalf("quarantined grid returned %v, want *mpic.GridFailure", err)
	}
	if len(gf.Report.Failed) != 2 {
		t.Fatalf("report lists %d failed trials, want 2", len(gf.Report.Failed))
	}
	for _, want := range []string{
		"ERROR after 2 attempt(s)",
		"injected wiring failure",
		"quarantined 2 of 2 trials",
	} {
		if !strings.Contains(out.String(), want) {
			t.Fatalf("output missing %q:\n%s", want, out.String())
		}
	}

	// The JSON aggregate must carry the failure count and still be valid
	// JSON with every trial quarantined.
	var jsonOut strings.Builder
	err = run(&jsonOut, []string{"-topology", "line", "-n", "4", "-iterfactor", "10",
		"-noise", "sim-test-failwire", "-rate", "0.001",
		"-trials", "2", "-retries", "1", "-json"})
	if !errors.As(err, &gf) {
		t.Fatalf("quarantined JSON grid returned %v, want *mpic.GridFailure", err)
	}
	var agg map[string]interface{}
	if err := json.Unmarshal([]byte(jsonOut.String()), &agg); err != nil {
		t.Fatalf("all-quarantined aggregate is not valid JSON: %v\n%s", err, jsonOut.String())
	}
	if agg["failedTrials"] != 2.0 {
		t.Fatalf("failedTrials = %v, want 2", agg["failedTrials"])
	}
}

// TestRunTrialsRetries pins the -retries knob: valid on a trial grid
// (where a healthy run is unaffected), rejected without one, and
// rejected when negative.
func TestRunTrialsRetries(t *testing.T) {
	if err := run(io.Discard, []string{"-topology", "line", "-n", "4", "-iterfactor", "10",
		"-trials", "2", "-retries", "2"}); err != nil {
		t.Fatalf("healthy grid with -retries: %v", err)
	}
	if err := run(io.Discard, []string{"-topology", "line", "-n", "4", "-retries", "2"}); err == nil ||
		!strings.Contains(err.Error(), "-trials") {
		t.Errorf("-retries without -trials: got %v", err)
	}
	if err := run(io.Discard, []string{"-topology", "line", "-n", "4",
		"-trials", "2", "-retries", "-1"}); err == nil || !strings.Contains(err.Error(), "non-negative") {
		t.Errorf("negative -retries: got %v", err)
	}
}

// TestRunRejectsIgnoredGridFlags pins that the flags a single run would
// drop are refused, the way -checkpoint and -retries are: -workers and
// -observe-every need -trials > 1, and -observe-every needs -observe.
// An -observe-every below -1 and a -trials below 1, which no setting
// means, are refused too.
func TestRunRejectsIgnoredGridFlags(t *testing.T) {
	for _, tc := range []struct {
		args []string
		want string
	}{
		{[]string{"-workers", "2"}, "needs -trials"},
		{[]string{"-observe", "-observe-every", "3"}, "needs -trials"},
		{[]string{"-trials", "2", "-observe-every", "3"}, "needs -observe"},
		{[]string{"-trials", "2", "-observe-every", "-1"}, "needs -observe"},
		{[]string{"-trials", "2", "-observe", "-observe-every", "-7"}, "-observe-every must be"},
		{[]string{"-trials", "0"}, "-trials must be"},
		{[]string{"-trials", "-3"}, "-trials must be"},
	} {
		args := append([]string{"-topology", "line", "-n", "4", "-iterfactor", "10"}, tc.args...)
		if err := run(io.Discard, args); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%v: got %v, want an error naming %s", tc.args, err, tc.want)
		}
	}
}
