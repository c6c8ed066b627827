package mpic_test

import (
	"context"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"mpic"
)

// sessionGrid is the durable-session test grid: enough cells that a
// cancellation lands mid-flight.
func sessionGrid(t *testing.T) mpic.Grid {
	t.Helper()
	grid := sweep{
		Base:     gridBase(),
		Rates:    []float64{0, 0.001, 0.002, 0.003, 0.004, 0.005},
		Trials:   2,
		SeedStep: 100,
	}.grid()
	return grid
}

// readStore decodes a FileGridStore file for assertions.
func readStore(t *testing.T, path string) (spec string, cells []json.RawMessage) {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var state struct {
		Version  int
		Spec     string
		Checksum string
		Cells    []json.RawMessage
	}
	if err := json.Unmarshal(data, &state); err != nil {
		t.Fatal(err)
	}
	if state.Version != 3 {
		t.Fatalf("store version = %d, want 3", state.Version)
	}
	if len(state.Checksum) != 64 {
		t.Fatalf("store checksum %q is not a hex SHA-256", state.Checksum)
	}
	return state.Spec, state.Cells
}

// TestGridCancelThenResume is the durable-session pin: cancel a parallel
// grid mid-flight, assert the store holds exactly the cells that
// completed, resume, and require the merged result bit-identical to an
// uninterrupted run.
func TestGridCancelThenResume(t *testing.T) {
	path := filepath.Join(t.TempDir(), "session.json")
	grid := sessionGrid(t)
	grid.Workers = 2
	grid.Store = mpic.NewFileGridStore(path)

	runner := mpic.NewRunner()
	defer runner.Close()

	// Uninterrupted reference, same runner, no store.
	ref := sessionGrid(t)
	ref.Workers = 2
	want, err := runner.CollectGrid(context.Background(), ref)
	if err != nil {
		t.Fatal(err)
	}

	// Cancel after the second completed cell streams.
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	streamed := 0
	err = runner.RunGrid(ctx, grid, func(res mpic.GridCellResult) {
		if res.Restored {
			t.Error("fresh session streamed a restored cell")
		}
		streamed++
		if streamed == 2 {
			cancel()
		}
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled grid returned %v, want context.Canceled", err)
	}
	if streamed >= len(grid.Cells) {
		t.Fatalf("all %d cells streamed before cancellation took effect", streamed)
	}

	// The store holds exactly the completed cells — no partials, nothing
	// from the cancelled in-flight runs.
	spec, saved := readStore(t, path)
	if spec != grid.Fingerprint() {
		t.Errorf("store spec = %q, want the grid fingerprint %q", spec, grid.Fingerprint())
	}
	if len(saved) != streamed {
		t.Fatalf("store holds %d cells, sink saw %d completions", len(saved), streamed)
	}

	// Resume: restored cells replay, the rest execute, and the merged
	// grid is bit-identical to the uninterrupted run.
	restored := 0
	got, err := runner.CollectGrid(context.Background(), mpic.Grid{
		Cells:   grid.Cells,
		Workers: 2,
		Store:   mpic.NewFileGridStore(path),
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := range got {
		if got[i].Restored {
			restored++
		}
		if !reflect.DeepEqual(got[i].Cell, want[i].Cell) {
			t.Errorf("cell %d differs after resume:\nresumed:       %+v\nuninterrupted: %+v", i, got[i].Cell, want[i].Cell)
		}
	}
	if restored != streamed {
		t.Errorf("resume restored %d cells, checkpoint held %d", restored, streamed)
	}

	// A third run restores everything and executes nothing.
	all, err := runner.CollectGrid(context.Background(), mpic.Grid{
		Cells: grid.Cells,
		Store: mpic.NewFileGridStore(path),
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := range all {
		if !all[i].Restored {
			t.Errorf("cell %d re-ran on a complete checkpoint", i)
		}
	}
}

// recordingStore counts Save calls and remembers the cell counts it was
// handed — a stand-in for a GridStore that batches its writes.
type recordingStore struct {
	saves []int
}

func (r *recordingStore) Load(string) ([]mpic.StoredCell, error) { return nil, nil }
func (r *recordingStore) Save(_ string, cells []mpic.StoredCell) error {
	r.saves = append(r.saves, len(cells))
	return nil
}

// TestGridFlushOnCancellation pins the session contract for pluggable
// stores: an interrupted grid — including a cancellation that surfaces
// as a wrapped run error from an in-flight cell — gets one final Save
// carrying every completed cell, so a batching store cannot lose the
// tail on Ctrl-C.
func TestGridFlushOnCancellation(t *testing.T) {
	grid := sessionGrid(t)
	grid.Workers = 2
	store := &recordingStore{}
	grid.Store = store

	runner := mpic.NewRunner()
	defer runner.Close()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	delivered := 0
	err := runner.RunGrid(ctx, grid, func(mpic.GridCellResult) {
		delivered++
		if delivered == 2 {
			cancel()
		}
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("got %v, want context.Canceled", err)
	}
	if len(store.saves) != delivered+1 {
		t.Fatalf("store saw %d saves for %d completed cells, want per-cell saves plus one flush", len(store.saves), delivered)
	}
	if last := store.saves[len(store.saves)-1]; last != delivered {
		t.Errorf("final flush carried %d cells, want all %d completed", last, delivered)
	}
}

// TestFileGridStoreContract pins the store's edges: a missing file is an
// empty session, a spec mismatch and an unknown format version are loud
// errors, and Save round-trips through Load.
func TestFileGridStoreContract(t *testing.T) {
	dir := t.TempDir()
	store := mpic.NewFileGridStore(filepath.Join(dir, "sub", "s.json"))
	if cells, err := store.Load("spec"); err != nil || cells != nil {
		t.Fatalf("missing file: got (%v, %v), want (nil, nil)", cells, err)
	}
	saved := []mpic.StoredCell{{
		Index: 3,
		Key:   mpic.GridKey{N: 4, Scheme: mpic.AlgorithmA, Rate: 0.5},
		Cell:  mpic.SweepCell{N: 4, Scheme: mpic.AlgorithmA, Rate: 0.5, Trials: 2, Successes: 1, Blowups: []float64{1.5, 2.5}},
	}}
	if err := store.Save("spec", saved); err != nil {
		t.Fatal(err)
	}
	got, err := store.Load("spec")
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, saved) {
		t.Errorf("round-trip mismatch:\nsaved:  %+v\nloaded: %+v", saved, got)
	}
	if _, err := store.Load("other-spec"); err == nil || !strings.Contains(err.Error(), "different grid") {
		t.Errorf("spec mismatch: got %v", err)
	}
	legacy := filepath.Join(dir, "legacy.json")
	if err := os.WriteFile(legacy, []byte(`{"Spec":"spec","Cells":[]}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := mpic.NewFileGridStore(legacy).Load("spec"); err == nil || !strings.Contains(err.Error(), "format version") {
		t.Errorf("versionless checkpoint: got %v", err)
	}
	v1 := filepath.Join(dir, "v1.json")
	if err := os.WriteFile(v1, []byte(`{"Version":1,"Spec":"spec","Cells":[]}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := mpic.NewFileGridStore(v1).Load("spec"); err == nil || !strings.Contains(err.Error(), "format version") {
		t.Errorf("pre-checksum v1 checkpoint: got %v", err)
	}
}

// corruptTail truncates a store file mid-JSON — the shape a torn write
// leaves behind.
func corruptTail(t *testing.T, path string) {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, data[:len(data)/2], 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestFileGridStoreCorruptionRecovery pins the crash-durability
// contract: a session file truncated mid-JSON (or checksum-corrupted in
// place) recovers from the .bak last-good state with the OnRecovery hook
// told why; with no usable backup, Load returns a clear typed
// *CorruptCheckpointError instead of a bare JSON error; and the
// crash-between-renames window (primary missing, backup present) also
// recovers.
func TestFileGridStoreCorruptionRecovery(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "s.json")
	store := mpic.NewFileGridStore(path)
	gen := func(n int) []mpic.StoredCell {
		var cells []mpic.StoredCell
		for i := 0; i < n; i++ {
			cells = append(cells, mpic.StoredCell{Index: i, Key: mpic.GridKey{N: 4 + i}, Cell: mpic.SweepCell{N: 4 + i, Trials: 1}})
		}
		return cells
	}

	// No backup yet: a torn first save is a loud, typed corruption error.
	if err := store.Save("spec", gen(1)); err != nil {
		t.Fatal(err)
	}
	corruptTail(t, path)
	_, err := store.Load("spec")
	var corrupt *mpic.CorruptCheckpointError
	if !errors.As(err, &corrupt) {
		t.Fatalf("torn checkpoint without backup: got %v, want *CorruptCheckpointError", err)
	}
	if !strings.Contains(err.Error(), "delete the file") {
		t.Errorf("corruption error gives no recovery guidance: %v", err)
	}

	// Rebuild two generations so a .bak exists, then tear the primary:
	// Load must fall back to the last good state and report the recovery.
	if err := store.Save("spec", gen(1)); err != nil {
		t.Fatal(err)
	}
	if err := store.Save("spec", gen(2)); err != nil {
		t.Fatal(err)
	}
	corruptTail(t, path)
	var recovered error
	store.OnRecovery = func(reason error) { recovered = reason }
	cells, err := store.Load("spec")
	if err != nil {
		t.Fatalf("torn checkpoint with backup: %v", err)
	}
	if len(cells) != 1 || !reflect.DeepEqual(cells, gen(1)) {
		t.Fatalf("recovered %d cells %+v, want the last good state %+v", len(cells), cells, gen(1))
	}
	if recovered == nil || !errors.As(recovered, &corrupt) {
		t.Errorf("OnRecovery reason = %v, want the corruption", recovered)
	}

	// The next Save must not rotate the torn primary over the good
	// backup; after it, both primary and backup verify again.
	if err := store.Save("spec", gen(3)); err != nil {
		t.Fatal(err)
	}
	recovered = nil
	if cells, err = store.Load("spec"); err != nil || len(cells) != 3 {
		t.Fatalf("post-recovery save: got %d cells, %v", len(cells), err)
	}
	if recovered != nil {
		t.Errorf("clean load after recovery still reported %v", recovered)
	}

	// Crash window between Save's two renames: primary missing, backup
	// good — the session resumes from the backup instead of silently
	// restarting as "empty".
	if err := store.Save("spec", gen(4)); err != nil {
		t.Fatal(err)
	}
	if err := os.Remove(path); err != nil {
		t.Fatal(err)
	}
	cells, err = store.Load("spec")
	if err != nil || len(cells) != 3 {
		t.Fatalf("missing-primary recovery: got %d cells, %v, want the 3-cell backup", len(cells), err)
	}
	if recovered == nil {
		t.Error("missing-primary recovery did not report through OnRecovery")
	}

	// In-place corruption that keeps the JSON valid: the checksum (which
	// also covers the spec) catches it.
	if err := store.Save("spec", gen(2)); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	munged := strings.Replace(string(data), `"Trials": 1`, `"Trials": 9`, 1)
	if munged == string(data) {
		t.Fatal("test did not mutate the payload")
	}
	if err := os.WriteFile(path, []byte(munged), 0o644); err != nil {
		t.Fatal(err)
	}
	recovered = nil
	if cells, err = store.Load("spec"); err != nil {
		t.Fatalf("checksum recovery: %v", err)
	}
	if recovered == nil || !strings.Contains(recovered.Error(), "checksum") {
		t.Errorf("valid-JSON corruption not caught by the checksum: recovery reason %v", recovered)
	}
	for _, c := range cells {
		if c.Cell.Trials == 9 {
			t.Fatal("corrupted payload served as truth")
		}
	}
}

// flakyStore fails its first n operations with a transient error.
type flakyStore struct {
	inner     mpic.GridStore
	failNext  int
	saves     int
	loads     int
	lastError error
}

func (f *flakyStore) op() error {
	if f.failNext > 0 {
		f.failNext--
		f.lastError = errors.New("transient: device busy")
		return f.lastError
	}
	return nil
}

func (f *flakyStore) Load(spec string) ([]mpic.StoredCell, error) {
	f.loads++
	if err := f.op(); err != nil {
		return nil, err
	}
	return f.inner.Load(spec)
}

func (f *flakyStore) Save(spec string, cells []mpic.StoredCell) error {
	f.saves++
	if err := f.op(); err != nil {
		return err
	}
	return f.inner.Save(spec, cells)
}

// TestRetryingGridStore pins the retry wrapper: transient errors are
// absorbed within the attempt budget with capped doubling backoff,
// exhausted budgets surface the last error, and corruption is never
// retried (a deterministic failure answers the same every time).
func TestRetryingGridStore(t *testing.T) {
	dir := t.TempDir()
	inner := mpic.NewFileGridStore(filepath.Join(dir, "s.json"))
	flaky := &flakyStore{inner: inner, failNext: 2}
	var slept []time.Duration
	store := &mpic.RetryingGridStore{
		Inner: flaky, MaxAttempts: 3,
		BaseDelay: 4 * time.Millisecond, MaxDelay: 6 * time.Millisecond,
		Sleep: func(d time.Duration) { slept = append(slept, d) },
	}
	cells := []mpic.StoredCell{{Key: mpic.GridKey{N: 4}, Cell: mpic.SweepCell{N: 4, Trials: 1}}}
	if err := store.Save("spec", cells); err != nil {
		t.Fatalf("save within budget: %v", err)
	}
	if flaky.saves != 3 {
		t.Errorf("save attempts = %d, want 3", flaky.saves)
	}
	if want := []time.Duration{4 * time.Millisecond, 6 * time.Millisecond}; !reflect.DeepEqual(slept, want) {
		t.Errorf("backoff schedule = %v, want %v (doubling, capped)", slept, want)
	}
	if got, err := store.Load("spec"); err != nil || !reflect.DeepEqual(got, cells) {
		t.Fatalf("load round-trip: %v, %v", got, err)
	}

	// Budget exhausted: the last transient error surfaces.
	flaky.failNext = 5
	if err := store.Save("spec", cells); err == nil || !strings.Contains(err.Error(), "transient") {
		t.Errorf("exhausted budget: got %v", err)
	}

	// Corruption is not retried: one attempt, typed error through.
	corruptTail(t, inner.Path())
	os.Remove(inner.BackupPath())
	flaky.failNext = 0
	flaky.loads = 0
	_, err := store.Load("spec")
	var corrupt *mpic.CorruptCheckpointError
	if !errors.As(err, &corrupt) {
		t.Fatalf("corrupt load through retry wrapper: got %v", err)
	}
	if flaky.loads != 1 {
		t.Errorf("corruption consumed %d attempts, want 1 (not retryable)", flaky.loads)
	}
	// Defaults: zero-value knobs pick the documented budget.
	def := mpic.NewRetryingGridStore(flaky)
	if def.Inner == nil {
		t.Fatal("NewRetryingGridStore dropped the inner store")
	}
}

// TestGridValidation pins the spec-error contract: negative Workers and
// negative Trials are rejected before anything runs, while the zero
// values keep their documented clamps (GOMAXPROCS and 1).
func TestGridValidation(t *testing.T) {
	runner := mpic.NewRunner()
	defer runner.Close()
	ran := 0
	err := runner.RunGrid(context.Background(), mpic.Grid{
		Cells:   []mpic.GridCell{{Scenario: gridBase()}},
		Workers: -1,
	}, func(mpic.GridCellResult) { ran++ })
	if err == nil || !strings.Contains(err.Error(), "Workers") {
		t.Errorf("negative Workers: got %v", err)
	}
	err = runner.RunGrid(context.Background(), mpic.Grid{
		Cells: []mpic.GridCell{{Scenario: gridBase()}, {Scenario: gridBase(), Trials: -2}},
	}, func(mpic.GridCellResult) { ran++ })
	if err == nil || !strings.Contains(err.Error(), "cell 1") || !strings.Contains(err.Error(), "Trials") {
		t.Errorf("negative Trials: got %v", err)
	}
	if ran != 0 {
		t.Errorf("%d cells ran despite invalid specs", ran)
	}
	// The documented clamps still hold: zero Workers and zero Trials run.
	cells, err := runner.CollectGrid(context.Background(), mpic.Grid{
		Cells: []mpic.GridCell{{Scenario: gridBase()}},
	})
	if err != nil || cells[0].Cell.Trials != 1 {
		t.Errorf("zero-value clamps broken: cells=%+v err=%v", cells, err)
	}
}

// TestGridProgressStream pins the fine-grained progress contract: every
// trial narrates start → iterations → done, events arrive while the
// grid is still executing (before later cells complete), and cell
// completions close each cell's stream.
func TestGridProgressStream(t *testing.T) {
	grid := sweep{
		Base:   gridBase(),
		Rates:  []float64{0, 0.001},
		Trials: 2,
	}.grid()
	grid.Workers = 1 // one goroutine: progress and sink order is total

	type step struct {
		event mpic.GridEvent
		cell  int
		trial int
		sink  bool
	}
	var steps []step
	grid.Progress = func(p mpic.GridProgress) {
		if p.Cells != len(grid.Cells) {
			t.Errorf("event %v reports %d cells, want %d", p.Event, p.Cells, len(grid.Cells))
		}
		switch p.Event {
		case mpic.GridTrialStart:
			if p.Info == nil || p.Info.Iterations <= 0 {
				t.Errorf("trial start without an iteration budget: %+v", p.Info)
			}
		case mpic.GridIteration:
			if p.Stats == nil || p.Stats.Iteration != p.Iteration {
				t.Errorf("iteration event stats mismatch: %+v", p)
			}
		case mpic.GridTrialDone:
			if p.Result == nil {
				t.Error("trial done without a result")
			}
		}
		steps = append(steps, step{event: p.Event, cell: p.Cell, trial: p.Trial})
	}
	runner := mpic.NewRunner()
	defer runner.Close()
	delivered := 0
	err := runner.RunGrid(context.Background(), grid, func(res mpic.GridCellResult) {
		steps = append(steps, step{cell: res.Index, sink: true})
		delivered++
	})
	if err != nil {
		t.Fatal(err)
	}
	if delivered != 2 {
		t.Fatalf("delivered %d cells, want 2", delivered)
	}

	// Progress is observed before grid completion: cell 0's iteration
	// events all precede cell 1's first event and the final delivery.
	firstOfCell1 := -1
	lastDelivery := -1
	iterationsCell0 := 0
	for i, s := range steps {
		if s.cell == 1 && firstOfCell1 < 0 {
			firstOfCell1 = i
		}
		if s.sink {
			lastDelivery = i
		}
		if !s.sink && s.cell == 0 && s.event == mpic.GridIteration {
			iterationsCell0++
			if firstOfCell1 >= 0 {
				t.Fatal("cell 0 iteration event after cell 1 started")
			}
		}
	}
	if iterationsCell0 == 0 {
		t.Fatal("no iteration events for cell 0")
	}
	if firstOfCell1 < 0 || firstOfCell1 >= lastDelivery {
		t.Fatalf("no progress observed before grid completion (cell 1 starts at %d, last delivery %d)", firstOfCell1, lastDelivery)
	}

	// Per trial: start, ≥1 iteration, done — in order; per cell a final
	// cell-done before the sink delivery.
	for cell := 0; cell < 2; cell++ {
		for trial := 0; trial < 2; trial++ {
			var kinds []mpic.GridEvent
			for _, s := range steps {
				if !s.sink && s.cell == cell && s.trial == trial && s.event != mpic.GridCellDone {
					kinds = append(kinds, s.event)
				}
			}
			if len(kinds) < 3 || kinds[0] != mpic.GridTrialStart || kinds[len(kinds)-1] != mpic.GridTrialDone {
				t.Errorf("cell %d trial %d event shape wrong: %v", cell, trial, kinds)
			}
			for _, k := range kinds[1 : len(kinds)-1] {
				if k != mpic.GridIteration {
					t.Errorf("cell %d trial %d interior event %v, want iteration", cell, trial, k)
				}
			}
		}
		cellDone := false
		for i, s := range steps {
			if !s.sink && s.cell == cell && s.event == mpic.GridCellDone {
				cellDone = true
				if i+1 >= len(steps) || !steps[i+1].sink || steps[i+1].cell != cell {
					t.Errorf("cell %d done event not immediately followed by its delivery", cell)
				}
			}
		}
		if !cellDone {
			t.Errorf("cell %d never emitted cell-done", cell)
		}
	}
}

// TestProgressLogAndRestoredEvents pins the ready-made sink's narration,
// including the restored-cell line on resume.
func TestProgressLogAndRestoredEvents(t *testing.T) {
	path := filepath.Join(t.TempDir(), "s.json")
	grid := sweep{Base: gridBase(), Rates: []float64{0, 0.001}}.grid()
	grid.Store = mpic.NewFileGridStore(path)
	var log strings.Builder
	grid.Progress = mpic.NewProgressLog(&log)

	runner := mpic.NewRunner()
	defer runner.Close()
	if err := runner.RunGrid(context.Background(), grid, nil); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"trial 1/1 started", "iter 0:", "trial 1/1 done: SUCCESS", "done (1 trials)"} {
		if !strings.Contains(log.String(), want) {
			t.Errorf("progress log missing %q:\n%s", want, log.String())
		}
	}
	log.Reset()
	if err := runner.RunGrid(context.Background(), grid, nil); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(log.String(), "restored from checkpoint") {
		t.Errorf("resumed progress log missing restore lines:\n%s", log.String())
	}
	if strings.Contains(log.String(), "trial 1/1 started") {
		t.Errorf("fully restored session still executed trials:\n%s", log.String())
	}
}

// TestGridFingerprint pins the default spec's sensitivity: the same grid
// fingerprints identically across constructions, and every axis a
// checkpoint must not survive — seed, trials, noise rate, scheme —
// changes it.
func TestGridFingerprint(t *testing.T) {
	mk := func(mut func(*sweep)) string {
		sw := sweep{Base: gridBase(), Rates: []float64{0, 0.001}, Trials: 2}
		if mut != nil {
			mut(&sw)
		}
		return sw.grid().Fingerprint()
	}
	base := mk(nil)
	if again := mk(nil); again != base {
		t.Errorf("same grid fingerprints differ: %q vs %q", base, again)
	}
	if strings.ContainsAny(base, "/\\ ") {
		t.Errorf("fingerprint %q is not filesystem-safe", base)
	}
	// Two structurally different explicit graphs with equal node and
	// edge counts (a path and a star, both n=4 m=3) must not share a
	// fingerprint — a stale session would otherwise silently resume.
	mkGraph := func(edges [][2]int) *mpic.Graph {
		g := mpic.NewGraph(4)
		for _, e := range edges {
			if err := g.AddEdge(mpic.Node(e[0]), mpic.Node(e[1])); err != nil {
				t.Fatal(err)
			}
		}
		if err := g.Validate(); err != nil {
			t.Fatal(err)
		}
		return g
	}
	graphFP := func(g *mpic.Graph) string {
		sc := gridBase()
		sc.Topology = mpic.GraphTopology(g)
		return mpic.Grid{Cells: []mpic.GridCell{{Scenario: sc}}}.Fingerprint()
	}
	path := graphFP(mkGraph([][2]int{{0, 1}, {1, 2}, {2, 3}}))
	star := graphFP(mkGraph([][2]int{{0, 1}, {0, 2}, {0, 3}}))
	if path == star {
		t.Error("fingerprint blind to explicit-graph structure (path vs star, same n and m)")
	}
	if again := graphFP(mkGraph([][2]int{{0, 1}, {1, 2}, {2, 3}})); again != path {
		t.Errorf("same explicit graph fingerprints differ: %q vs %q", path, again)
	}
	for name, mut := range map[string]func(*sweep){
		"seed":    func(sw *sweep) { sw.Base.Seed++ },
		"trials":  func(sw *sweep) { sw.Trials = 3 },
		"rates":   func(sw *sweep) { sw.Rates = []float64{0, 0.002} },
		"scheme":  func(sw *sweep) { sw.Schemes = []mpic.Scheme{mpic.AlgorithmB} },
		"n":       func(sw *sweep) { sw.N = []int{5} },
		"budget":  func(sw *sweep) { sw.Base.IterFactor = 99 },
		"noise":   func(sw *sweep) { sw.Base.Noise = mpic.Adaptive(0) },
		"rounds":  func(sw *sweep) { sw.Base.Workload = mpic.RandomTraffic(41) },
		"seedstp": func(sw *sweep) { sw.SeedStep = 7 },
	} {
		if mk(mut) == base {
			t.Errorf("fingerprint blind to %s", name)
		}
	}
}

// TestKeepResultsPersistAndRestore pins satellite persistence: a
// KeepResults grid under a durable session stores every trial's Result
// (as StoredResult), and a resumed run streams them back bit-identical —
// metrics, potential trajectories, and virtual-time NetStats included —
// with only the documented omissions (Outputs, Arena) nil.
func TestKeepResultsPersistAndRestore(t *testing.T) {
	path := filepath.Join(t.TempDir(), "keep.json")
	mk := func() mpic.Grid {
		base := gridBase()
		base.Noise = mpic.RandomNoise(0.002)
		base.Delay = mpic.JitterDelay(0.8)
		base.Faults = &mpic.NetFaults{SpikeRate: 0.05}
		grid := sweep{
			Base:     base,
			Rates:    []float64{0, 0.002},
			Trials:   2,
			SeedStep: 100,
		}.grid()
		grid.KeepResults = true
		grid.Store = mpic.NewFileGridStore(path)
		return grid
	}
	runner := mpic.NewRunner()
	defer runner.Close()

	fresh, err := runner.CollectGrid(context.Background(), mk())
	if err != nil {
		t.Fatal(err)
	}
	replayed, err := runner.CollectGrid(context.Background(), mk())
	if err != nil {
		t.Fatal(err)
	}
	if len(replayed) != len(fresh) {
		t.Fatalf("replay returned %d cells, want %d", len(replayed), len(fresh))
	}
	for i := range replayed {
		if !replayed[i].Restored {
			t.Fatalf("cell %d re-ran on a complete KeepResults checkpoint", i)
		}
		if len(replayed[i].Results) != len(fresh[i].Results) || len(replayed[i].Results) == 0 {
			t.Fatalf("cell %d restored %d trial results, want %d",
				i, len(replayed[i].Results), len(fresh[i].Results))
		}
		for j, got := range replayed[i].Results {
			want := fresh[i].Results[j]
			if got.Outputs != nil || got.Arena != nil {
				t.Errorf("cell %d trial %d: restored result carries Outputs/Arena", i, j)
			}
			if !reflect.DeepEqual(got.Metrics, want.Metrics) {
				t.Errorf("cell %d trial %d metrics differ after restore:\n%+v\n%+v",
					i, j, got.Metrics, want.Metrics)
			}
			if got.Metrics.Net == nil {
				t.Errorf("cell %d trial %d lost its NetStats in the store", i, j)
			}
			if !reflect.DeepEqual(got.Potential, want.Potential) {
				t.Errorf("cell %d trial %d potential trajectory differs after restore", i, j)
			}
			if got.Success != want.Success || got.Blowup != want.Blowup ||
				got.Iterations != want.Iterations || got.GStar != want.GStar ||
				got.NumChunks != want.NumChunks || got.CCProtocol != want.CCProtocol {
				t.Errorf("cell %d trial %d scalar fields differ after restore", i, j)
			}
		}
	}

	// A grid without KeepResults restores from the same file shape with
	// Results empty — the stored trials are simply not streamed back.
	plain := mk()
	plain.KeepResults = false
	noKeep, err := runner.CollectGrid(context.Background(), plain)
	if err != nil {
		t.Fatal(err)
	}
	for i := range noKeep {
		if len(noKeep[i].Results) != 0 {
			t.Errorf("cell %d streamed Results without KeepResults", i)
		}
	}
}

// TestFileGridStoreConflictDetected is the concurrent-access regression
// pin: two stores sharing one session file must not silently clobber
// each other. The second writer's Save fails loudly with a typed
// *SessionConflictError the moment the file no longer holds the state
// it last read — and the error is deterministic, so RetryingGridStore
// refuses to burn attempts on it.
func TestFileGridStoreConflictDetected(t *testing.T) {
	path := filepath.Join(t.TempDir(), "shared.json")
	a := mpic.NewFileGridStore(path)
	b := mpic.NewFileGridStore(path)
	const spec = "conflict-spec"
	cell := func(i int) mpic.StoredCell {
		return mpic.StoredCell{Index: i, Cell: mpic.SweepCell{N: 4, Trials: 1}}
	}

	if _, err := a.Load(spec); err != nil {
		t.Fatal(err)
	}
	if err := a.Save(spec, []mpic.StoredCell{cell(0)}); err != nil {
		t.Fatal(err)
	}
	// b reads a's state, then a moves on: b's next write would discard
	// cell 1.
	if _, err := b.Load(spec); err != nil {
		t.Fatal(err)
	}
	if err := a.Save(spec, []mpic.StoredCell{cell(0), cell(1)}); err != nil {
		t.Fatal(err)
	}
	err := b.Save(spec, []mpic.StoredCell{cell(0), cell(2)})
	var conflict *mpic.SessionConflictError
	if !errors.As(err, &conflict) {
		t.Fatalf("second writer's Save returned %v, want *SessionConflictError", err)
	}
	if conflict.Path != path || conflict.StoredSpec != spec {
		t.Errorf("conflict error carries %q/%q, want %q/%q", conflict.Path, conflict.StoredSpec, path, spec)
	}
	// The winner's state is untouched by the refused write.
	cells, err := a.Load(spec)
	if err != nil {
		t.Fatal(err)
	}
	if len(cells) != 2 || cells[1].Index != 1 {
		t.Fatalf("refused write damaged the session: %+v", cells)
	}
	// b recovers by re-reading — Load refreshes its view of the state —
	// after which its merge-and-save goes through.
	merged, err := b.Load(spec)
	if err != nil {
		t.Fatal(err)
	}
	if err := b.Save(spec, append(merged, cell(2))); err != nil {
		t.Fatalf("save after re-read: %v", err)
	}

	// A conflict is deterministic: the retrying decorator must return it
	// on the first attempt instead of retrying into the same answer.
	stale := mpic.NewFileGridStore(path)
	if _, err := stale.Load(spec); err != nil {
		t.Fatal(err)
	}
	if err := b.Save(spec, append(merged, cell(2), cell(3))); err != nil {
		t.Fatal(err)
	}
	slept := 0
	retrying := &mpic.RetryingGridStore{
		Inner: stale, MaxAttempts: 5,
		Sleep: func(time.Duration) { slept++ },
	}
	if err := retrying.Save(spec, []mpic.StoredCell{cell(9)}); !errors.As(err, &conflict) {
		t.Fatalf("retrying store returned %v, want *SessionConflictError", err)
	}
	if slept != 0 {
		t.Errorf("retrying store slept %d times over a deterministic conflict", slept)
	}
}

// TestFileGridStoreLockSerializesWriters pins the coordination half of
// concurrent-access safety: many goroutines hammering load-merge-save
// on separate store handles (the uncoordinated-two-process shape) never
// corrupt the file — every outcome is either a cleanly merged state or
// a loud conflict, and the file always parses.
func TestFileGridStoreLockSerializesWriters(t *testing.T) {
	path := filepath.Join(t.TempDir(), "hammer.json")
	const spec = "hammer-spec"
	var wg sync.WaitGroup
	conflicts := make([]int, 8)
	for w := 0; w < len(conflicts); w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			store := mpic.NewFileGridStore(path)
			for i := 0; i < 10; i++ {
				cells, err := store.Load(spec)
				if err != nil {
					t.Errorf("worker %d load: %v", w, err)
					return
				}
				err = store.Save(spec, append(cells, mpic.StoredCell{Index: w*100 + i}))
				var conflict *mpic.SessionConflictError
				if errors.As(err, &conflict) {
					conflicts[w]++
					continue
				}
				if err != nil {
					t.Errorf("worker %d save: %v", w, err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	final := mpic.NewFileGridStore(path)
	if _, err := final.Load(spec); err != nil {
		t.Fatalf("file corrupt after concurrent hammering: %v", err)
	}
}
