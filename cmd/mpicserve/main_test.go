package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestRunFlagValidation pins the flag surface: the data directory is
// mandatory and the numeric knobs reject nonsense before any listener
// or worker starts.
func TestRunFlagValidation(t *testing.T) {
	cases := map[string][]string{
		"-data is required": {},
		"at least 1":        {"-data", t.TempDir(), "-workers", "0"},
		"non-negative":      {"-data", t.TempDir(), "-retries", "-1"},
	}
	for want, args := range cases {
		err := run(args)
		if err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("run(%v) = %v, want error containing %q", args, err, want)
		}
	}
	if err := run([]string{"-definitely-not-a-flag"}); err == nil {
		t.Error("bad flag accepted")
	}
}

// TestRunHelp pins that -h prints the usage on the flag set's output
// (stderr) and succeeds, so the process exits 0 without serving.
func TestRunHelp(t *testing.T) {
	var err error
	out := captureStderr(t, func() { err = run([]string{"-h"}) })
	if err != nil {
		t.Fatalf("-h: %v", err)
	}
	if !strings.Contains(out, "Usage of mpicserve") || !strings.Contains(out, "-data") {
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
