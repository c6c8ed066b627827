package experiments

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
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

// sessionFiles lists the session files in a checkpoint dir, skipping
// the .lock concurrency sidecars the store keeps beside them.
func sessionFiles(t *testing.T, dir string) []string {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, e := range entries {
		if !strings.HasSuffix(e.Name(), ".lock") {
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

	// Simulate an interruption: rewrite the session without the last two
	// persisted cells. The rewrite must go through the store API — the
	// checksummed format correctly treats hand-edited records as
	// corruption.
	path := filepath.Join(cfg.Checkpoint, sessions[0])
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	header, _, _ := strings.Cut(string(data), "\n")
	var state struct {
		Spec string
	}
	if err := json.Unmarshal([]byte(header), &state); err != nil {
		t.Fatal(err)
	}
	cells, err := mpic.NewFileGridStore(path).Load(state.Spec)
	if err != nil {
		t.Fatal(err)
	}
	if len(cells) != 5 {
		t.Fatalf("session holds %d cells, want 5", len(cells))
	}
	if err := os.Remove(path); err != nil {
		t.Fatal(err)
	}
	if err := mpic.NewFileGridStore(path).Save(state.Spec, cells[:3]); err != nil {
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

// TestTablesIndependentOfWorkerCount pins that a table's rows do not
// depend on how many cells its grid runs at once: each table below is
// rendered at GOMAXPROCS 1 (one cell at a time) and at 4, and the rows
// must match. The four cover the grid shapes that could couple cells:
// duplicate-key Tune variants (ablation), KeepResults trajectories
// (potential), UseProtocol protocols shared by a cell's trials
// (fully-utilized) and the white-box attacker (collision-attack).
// Forcing the width keeps the parallel path covered on a one-CPU box.
func TestTablesIndependentOfWorkerCount(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	cfg := Config{Trials: 2, Seed: 3, Quick: true}
	for _, name := range []string{"ablation", "potential", "fully-utilized", "collision-attack"} {
		runtime.GOMAXPROCS(1)
		seq, err := Run(name, cfg)
		if err != nil {
			t.Fatalf("%s at GOMAXPROCS 1: %v", name, err)
		}
		runtime.GOMAXPROCS(4)
		par, err := Run(name, cfg)
		if err != nil {
			t.Fatalf("%s at GOMAXPROCS 4: %v", name, err)
		}
		if !reflect.DeepEqual(par.Rows, seq.Rows) {
			t.Errorf("%s rows depend on the worker count:\nGOMAXPROCS 1: %v\nGOMAXPROCS 4: %v", name, seq.Rows, par.Rows)
		}
	}
}

// TestParallelResumeDuplicateKeys pins resume of a duplicate-key table
// on a parallel pool: the ablation variants share one grid key and
// differ only in their Tune closures, and at GOMAXPROCS 4 the journal
// holds them in completion order. A session that kept a subset of the
// cells that is not a prefix in index order (the middle variant is
// missing) must resume to the rows of a fresh run.
func TestParallelResumeDuplicateKeys(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	cfg := Config{Trials: 2, Seed: 3, Quick: true}
	fresh, err := Ablation(cfg)
	if err != nil {
		t.Fatal(err)
	}

	cfg.Checkpoint = t.TempDir()
	if _, err := Ablation(cfg); err != nil {
		t.Fatal(err)
	}
	sessions := sessionFiles(t, cfg.Checkpoint)
	if len(sessions) != 1 {
		t.Fatalf("checkpoint dir holds %d session files, want 1", len(sessions))
	}
	// Rewrite the session through the store API without the middle
	// variant, as TestExperimentCheckpointResume does.
	path := filepath.Join(cfg.Checkpoint, sessions[0])
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	header, _, _ := strings.Cut(string(data), "\n")
	var state struct {
		Spec string
	}
	if err := json.Unmarshal([]byte(header), &state); err != nil {
		t.Fatal(err)
	}
	cells, err := mpic.NewFileGridStore(path).Load(state.Spec)
	if err != nil {
		t.Fatal(err)
	}
	if len(cells) != 3 {
		t.Fatalf("session holds %d cells, want 3", len(cells))
	}
	var kept []mpic.StoredCell
	for _, c := range cells {
		if c.Index != 1 {
			kept = append(kept, c)
		}
	}
	if err := os.Remove(path); err != nil {
		t.Fatal(err)
	}
	if err := mpic.NewFileGridStore(path).Save(state.Spec, kept); err != nil {
		t.Fatal(err)
	}
	resumed, err := Ablation(cfg)
	if err != nil {
		t.Fatalf("resume failed: %v", err)
	}
	if !reflect.DeepEqual(resumed.Rows, fresh.Rows) {
		t.Fatalf("resumed rows differ from fresh:\n%v\n%v", resumed.Rows, fresh.Rows)
	}
}

// TestRegistryComplete ensures every reproduction experiment — Table 1
// and the figure-style experiments — is registered.
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

// TestRunTrialsCount checks Config.Trials at Run and RunAll: a negative
// count is an error naming the field, and zero runs the default.
func TestRunTrialsCount(t *testing.T) {
	for _, tc := range []struct {
		trials int
		want   string // error substring; "" = the table runs
	}{
		{-1, "Config.Trials"},
		{0, ""},
	} {
		cfg := Config{Trials: tc.trials, Seed: 3, Quick: true}
		tab, err := Run("rewind-wave", cfg)
		if tc.want == "" {
			if err != nil || len(tab.Rows) == 0 {
				t.Errorf("Trials %d: Run = %v, %v; want a table", tc.trials, tab, err)
			}
			if got := cfg.trials(); got != 3 {
				t.Errorf("Trials %d under Quick runs %d trials, want 3", tc.trials, got)
			}
			continue
		}
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("Trials %d: Run error %v, want one naming %s", tc.trials, err, tc.want)
		}
		if _, err := RunAll(cfg); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("Trials %d: RunAll error %v, want one naming %s", tc.trials, err, tc.want)
		}
	}
}

// TestAllExperimentsQuick executes every experiment end to end in quick
// mode at seed 1 and pins every table — ID, registry name, title,
// header, rows and notes — to the experiment artefact BENCH_PR10.json
// (`mpicbench -experiment all -quick -json`), so a change that moves any
// experiment row fails here. The structural checks (tables render, rows
// fit the header) stay; full-mode runs (`mpicbench -experiment all`)
// give the quantitative shape.
func TestAllExperimentsQuick(t *testing.T) {
	if testing.Short() {
		t.Skip("quick experiment sweep still costs seconds")
	}
	data, err := os.ReadFile("../../BENCH_PR10.json")
	if err != nil {
		t.Fatal(err)
	}
	var pinned []*Table
	if err := json.Unmarshal(data, &pinned); err != nil {
		t.Fatal(err)
	}
	want := make(map[string]*Table, len(pinned))
	for _, tab := range pinned {
		want[tab.ID] = tab
	}
	cfg := Config{Trials: 10, Quick: true, Seed: 1}
	tables, err := RunAll(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(tables) != len(Registry) || len(pinned) != len(Registry) {
		t.Fatalf("got %d tables and %d pinned ones, want %d", len(tables), len(pinned), len(Registry))
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
		if !reflect.DeepEqual(tab, want[tab.ID]) {
			t.Errorf("%s differs from BENCH_PR10.json:\ngot:  %+v\nwant: %+v", tab.ID, tab, want[tab.ID])
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
