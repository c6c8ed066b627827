package experiments

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"mpic"
	"mpic/internal/core"
	"mpic/internal/graph"
	"mpic/internal/stats"
)

// TestSweepReproducesExperimentTable is the acceptance check for the
// harness's grid path: building the CC-vs-noise grid (E-F3) directly
// from public mpic.GridCell values reproduces the table the experiment
// harness produces, cell for cell.
func TestSweepReproducesExperimentTable(t *testing.T) {
	cfg := Config{Trials: 2, Seed: 3, Quick: true}
	table, err := CCVsNoise(cfg)
	if err != nil {
		t.Fatal(err)
	}

	g := graph.Line(5)
	m := float64(g.M())
	runner := mpic.NewRunner()
	defer runner.Close()
	for i, mult := range []float64{0, 0.002, 0.005, 0.01, 0.02} {
		var noise mpic.NoiseSpec
		if mult > 0 {
			noise = mpic.RandomNoise(mult / m)
		}
		cells, err := runner.CollectGrid(context.Background(), mpic.Grid{Cells: []mpic.GridCell{{
			Scenario: mpic.Scenario{
				Topology:   mpic.GraphTopology(g),
				Workload:   workloadSpec(g.N(), cfg.Quick),
				Scheme:     core.AlgA,
				Noise:      noise,
				Seed:       cfg.Seed,
				IterFactor: iterBudget(cfg),
				HashMode:   mpic.HashLegacy, // the tables pin the paper-faithful path
			},
			Trials:   cfg.trials(),
			SeedStep: trialSeedStep,
		}}})
		if err != nil {
			t.Fatal(err)
		}
		c := cells[0].Cell
		want := []string{
			fmt.Sprintf("%.3f", mult),
			fmt.Sprintf("%d/%d", c.Successes, c.Trials),
			fmt.Sprintf("%.1f", stats.Summarize(c.Blowups).Mean),
			fmt.Sprintf("%.0f", stats.Summarize(c.Iterations).Mean),
			fmt.Sprint(c.Corruptions),
		}
		got := table.Rows[i]
		for j := range want {
			if got[j] != want[j] {
				t.Errorf("row %d col %d: table %q != direct sweep %q", i, j, got[j], want[j])
			}
		}
	}
}

// sessionFiles lists the primary session files in a checkpoint dir,
// skipping the .bak last-good-state copies and the .lock concurrency
// sidecars the store keeps beside them.
func sessionFiles(t *testing.T, dir string) []string {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, e := range entries {
		if !strings.HasSuffix(e.Name(), ".bak") && !strings.HasSuffix(e.Name(), ".lock") {
			names = append(names, e.Name())
		}
	}
	return names
}

// TestExperimentCheckpointResume pins the harness's durable sessions: a
// checkpointed table renders the same rows as an uncheckpointed one, an
// interrupted session (simulated by truncating the persisted cells)
// resumes to identical rows, and a fully persisted session replays
// without re-running anything.
func TestExperimentCheckpointResume(t *testing.T) {
	cfg := Config{Trials: 2, Seed: 3, Quick: true}
	fresh, err := CCVsNoise(cfg)
	if err != nil {
		t.Fatal(err)
	}

	cfg.Checkpoint = t.TempDir()
	first, err := CCVsNoise(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(first.Rows, fresh.Rows) {
		t.Fatalf("checkpointed rows differ from fresh:\n%v\n%v", first.Rows, fresh.Rows)
	}
	sessions := sessionFiles(t, cfg.Checkpoint)
	if len(sessions) != 1 {
		t.Fatalf("checkpoint dir holds %d session files, want 1", len(sessions))
	}

	// Simulate an interruption: drop the last two persisted cells. The
	// rewrite must go through the store API — the checksummed format
	// correctly treats hand-edited checkpoint JSON as corruption.
	path := filepath.Join(cfg.Checkpoint, sessions[0])
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var state struct {
		Spec string
	}
	if err := json.Unmarshal(data, &state); err != nil {
		t.Fatal(err)
	}
	store := mpic.NewFileGridStore(path)
	cells, err := store.Load(state.Spec)
	if err != nil {
		t.Fatal(err)
	}
	if len(cells) != 5 {
		t.Fatalf("session holds %d cells, want 5", len(cells))
	}
	if err := store.Save(state.Spec, cells[:3]); err != nil {
		t.Fatal(err)
	}
	resumed, err := CCVsNoise(cfg)
	if err != nil {
		t.Fatalf("resume failed: %v", err)
	}
	if !reflect.DeepEqual(resumed.Rows, fresh.Rows) {
		t.Fatalf("resumed rows differ from fresh:\n%v\n%v", resumed.Rows, fresh.Rows)
	}

	// Fully persisted: the table replays from the store alone.
	replayed, err := CCVsNoise(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(replayed.Rows, fresh.Rows) {
		t.Fatalf("replayed rows differ from fresh:\n%v\n%v", replayed.Rows, fresh.Rows)
	}

	// A different Config must open a different session, not poison this
	// one (per-grid files are fingerprint-named).
	other := cfg
	other.Seed = 4
	if _, err := CCVsNoise(other); err != nil {
		t.Fatalf("different config in the same checkpoint dir: %v", err)
	}
	if n := len(sessionFiles(t, cfg.Checkpoint)); n != 2 {
		t.Fatalf("checkpoint dir holds %d session files after a second config, want 2", n)
	}

	// Trajectory experiments (KeepResults grids) persist per-trial
	// Results too: a second run replays the table from the store alone
	// and must render identical rows.
	traj, err := PotentialGrowth(cfg)
	if err != nil {
		t.Fatalf("KeepResults experiment under checkpointing: %v", err)
	}
	trajReplayed, err := PotentialGrowth(cfg)
	if err != nil {
		t.Fatalf("KeepResults replay: %v", err)
	}
	if !reflect.DeepEqual(trajReplayed.Rows, traj.Rows) {
		t.Fatalf("replayed trajectory rows differ from fresh:\n%v\n%v", trajReplayed.Rows, traj.Rows)
	}
}

// TestRegistryComplete ensures every experiment of DESIGN.md §4 is
// registered.
func TestRegistryComplete(t *testing.T) {
	want := []string{
		"table1", "noise-sweep", "rate-size", "cc-noise", "rewind-wave",
		"potential", "collisions", "ablation", "delta-bias", "seed-attack",
		"rounds", "fully-utilized", "collision-attack", "delay-overhead",
	}
	for _, name := range want {
		if _, ok := Registry[name]; !ok {
			t.Errorf("experiment %q missing from registry", name)
		}
	}
	if len(Registry) != len(want) {
		t.Errorf("registry has %d entries, want %d", len(Registry), len(want))
	}
}

func TestRunUnknown(t *testing.T) {
	if _, err := Run("nope", Config{}); err == nil {
		t.Error("unknown experiment accepted")
	}
}

// TestAllExperimentsQuick executes every experiment end to end in quick
// mode: the assertions are structural (tables render, rows exist); the
// quantitative shape is recorded in EXPERIMENTS.md from full-mode runs.
func TestAllExperimentsQuick(t *testing.T) {
	if testing.Short() {
		t.Skip("quick experiment sweep still costs seconds")
	}
	cfg := Config{Trials: 2, Seed: 3, Quick: true}
	tables, err := RunAll(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(tables) != len(Registry) {
		t.Fatalf("got %d tables, want %d", len(tables), len(Registry))
	}
	for _, tab := range tables {
		if len(tab.Rows) == 0 {
			t.Errorf("%s: no rows", tab.ID)
		}
		md := tab.Markdown()
		if !strings.Contains(md, tab.Title) {
			t.Errorf("%s: markdown missing title", tab.ID)
		}
		for _, row := range tab.Rows {
			if len(row) != len(tab.Header) {
				t.Errorf("%s: row width %d != header %d", tab.ID, len(row), len(tab.Header))
			}
		}
		t.Log("\n" + md)
	}
}

func TestMarkdownFormat(t *testing.T) {
	tab := &Table{
		ID: "X", Title: "demo",
		Header: []string{"a", "b"},
		Rows:   [][]string{{"1", "2"}},
		Notes:  []string{"note"},
	}
	md := tab.Markdown()
	for _, want := range []string{"### X — demo", "| a | b |", "| 1 | 2 |", "*note*"} {
		if !strings.Contains(md, want) {
			t.Errorf("markdown missing %q:\n%s", want, md)
		}
	}
}
