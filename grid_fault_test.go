package mpic_test

import (
	"context"
	"errors"
	"fmt"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"mpic"
	"mpic/internal/faults"
)

// flakyObserver panics on its first failLeft iterations-zero sightings —
// a minimal injected in-cell fault riding the same Observer hooks real
// scenarios use. One instance per cell; cell attempts run sequentially
// on one worker, but distinct cells run concurrently, so the counter is
// locked.
type flakyObserver struct {
	mu       sync.Mutex
	failLeft int
}

func (f *flakyObserver) IterationDone(st mpic.IterationStats) {
	if st.Iteration != 0 {
		return
	}
	f.mu.Lock()
	fail := f.failLeft > 0
	if fail {
		f.failLeft--
	}
	f.mu.Unlock()
	if fail {
		panic("flakyObserver: injected failure")
	}
}

// faultGrid builds a small grid whose cell at faultyIndex carries the
// given observer.
func faultGrid(t *testing.T, obs mpic.Observer, faultyIndex int) mpic.Grid {
	t.Helper()
	grid := sweep{
		Base:   gridBase(),
		Rates:  []float64{0, 0.002, 0.004},
		Trials: 2,
	}.grid()
	if obs != nil {
		sc := grid.Cells[faultyIndex].Scenario
		sc.Observers = append(append([]mpic.Observer(nil), sc.Observers...), obs)
		grid.Cells[faultyIndex].Scenario = sc
	}
	return grid
}

// TestGridRetryDeterministic is the retry-determinism pin: a cell that
// panics k <= Retries times and then succeeds produces results
// bit-identical to a run where it never failed — retried attempts
// re-derive the same seeds, so fault recovery is invisible in the data.
func TestGridRetryDeterministic(t *testing.T) {
	runner := mpic.NewRunner()
	defer runner.Close()

	clean := faultGrid(t, nil, 0)
	want, err := runner.CollectGrid(context.Background(), clean)
	if err != nil {
		t.Fatal(err)
	}

	flaky := faultGrid(t, &flakyObserver{failLeft: 2}, 1)
	flaky.Retries = 2
	var events []string
	flaky.Progress = func(p mpic.GridProgress) {
		if p.Event == mpic.GridCellRetrying {
			events = append(events, fmt.Sprintf("retry cell=%d attempt=%d err=%t", p.Cell, p.Attempt, p.Err != nil))
		}
	}
	got, err := runner.CollectGrid(context.Background(), flaky)
	if err != nil {
		t.Fatalf("grid with k<max failures must succeed: %v", err)
	}
	for i := range want {
		if got[i].Err != nil {
			t.Fatalf("cell %d carries error %v after successful retries", i, got[i].Err)
		}
		wantAttempts := 1
		if i == 1 {
			wantAttempts = 3
		}
		if got[i].Attempts != wantAttempts {
			t.Errorf("cell %d Attempts = %d, want %d", i, got[i].Attempts, wantAttempts)
		}
		// Everything but the attempt counter must be bit-identical.
		g := got[i]
		g.Attempts = want[i].Attempts
		if !reflect.DeepEqual(g, want[i]) {
			t.Errorf("cell %d after retries differs from clean run:\n got %+v\nwant %+v", i, g, want[i])
		}
	}
	if wantEvents := []string{"retry cell=1 attempt=1 err=true", "retry cell=1 attempt=2 err=true"}; !reflect.DeepEqual(events, wantEvents) {
		t.Errorf("retry events = %v, want %v", events, wantEvents)
	}
}

// TestGridPanicFailFast pins the default error mode: a cell panic is
// recovered into a typed *CellPanicError that aborts the grid — not a
// process crash, and not a silent skip.
func TestGridPanicFailFast(t *testing.T) {
	runner := mpic.NewRunner()
	defer runner.Close()
	grid := faultGrid(t, &flakyObserver{failLeft: 99}, 1)
	grid.Workers = 1
	_, err := runner.CollectGrid(context.Background(), grid)
	var cp *mpic.CellPanicError
	if !errors.As(err, &cp) {
		t.Fatalf("got %v, want *CellPanicError", err)
	}
	if cp.Cell != 1 || len(cp.Stack) == 0 {
		t.Errorf("panic error lost context: cell=%d stack=%d bytes", cp.Cell, len(cp.Stack))
	}
	if !strings.Contains(err.Error(), "panicked") {
		t.Errorf("error message %q does not say what happened", err)
	}
}

// TestGridQuarantine pins quarantine mode end to end: a poisoned cell
// exhausts its attempts, streams with Err set, is excluded from the
// session store, and the rest of the grid completes; the run returns a
// *GridFailure whose report inventories the failure; and a resumed
// session re-attempts only the quarantined cell — recovering the full
// grid bit-identically once the fault clears.
func TestGridQuarantine(t *testing.T) {
	runner := mpic.NewRunner()
	defer runner.Close()

	clean := faultGrid(t, nil, 0)
	want, err := runner.CollectGrid(context.Background(), clean)
	if err != nil {
		t.Fatal(err)
	}

	store := mpic.NewFileGridStore(filepath.Join(t.TempDir(), "q.json"))
	spec := "quarantine-test"
	grid := faultGrid(t, &flakyObserver{failLeft: 99}, 1)
	grid.Retries = 1
	grid.OnCellError = mpic.QuarantineCells
	grid.Store = store
	grid.Spec = spec
	grid.Workers = 1
	var failedEvents int
	grid.Progress = func(p mpic.GridProgress) {
		if p.Event == mpic.GridCellFailed {
			failedEvents++
			if p.Cell != 1 || p.Err == nil || p.Attempt != 2 {
				t.Errorf("cell-failed event lost context: %+v", p)
			}
		}
	}
	var streamed []mpic.GridCellResult
	err = runner.RunGrid(context.Background(), grid, func(res mpic.GridCellResult) {
		streamed = append(streamed, res)
	})
	var gf *mpic.GridFailure
	if !errors.As(err, &gf) {
		t.Fatalf("got %v, want *GridFailure", err)
	}
	rep := gf.Report
	if rep.Cells != 3 || rep.Completed != 2 || len(rep.Failed) != 1 {
		t.Fatalf("report = %+v, want 2 of 3 completed, 1 failed", rep)
	}
	if f := rep.Failed[0]; f.Index != 1 || f.Err == nil || f.Attempts != 2 {
		t.Errorf("failed cell record lost context: %+v", f)
	}
	var cp *mpic.CellPanicError
	if !errors.As(err, &cp) {
		t.Errorf("GridFailure does not unwrap to the cell's panic: %v", err)
	}
	if failedEvents != 1 {
		t.Errorf("saw %d cell-failed events, want 1", failedEvents)
	}
	if len(streamed) != 3 {
		t.Fatalf("streamed %d cells, want all 3 (failed one included)", len(streamed))
	}
	for _, res := range streamed {
		if res.Index == 1 {
			if res.Err == nil || res.Cell.Trials != 0 {
				t.Errorf("quarantined cell streamed wrong: %+v", res)
			}
		} else if res.Err != nil {
			t.Errorf("healthy cell %d streamed with error %v", res.Index, res.Err)
		}
	}
	// The store holds exactly the healthy cells.
	saved, err := store.Load(spec)
	if err != nil {
		t.Fatal(err)
	}
	if len(saved) != 2 {
		t.Fatalf("store holds %d cells, want 2 (quarantined cell must not persist)", len(saved))
	}
	for _, e := range saved {
		if e.Index == 1 {
			t.Fatal("quarantined cell was persisted")
		}
	}

	// Fault cleared: the resumed session re-attempts only cell 1 and the
	// assembled grid matches the clean run bit for bit.
	resume := faultGrid(t, nil, 0)
	resume.Store = store
	resume.Spec = spec
	got, err := runner.CollectGrid(context.Background(), resume)
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		g := got[i]
		g.Restored, g.Attempts = false, want[i].Attempts
		if !reflect.DeepEqual(g, want[i]) {
			t.Errorf("resumed cell %d differs from clean run:\n got %+v\nwant %+v", i, g, want[i])
		}
		if i != 1 && !got[i].Restored {
			t.Errorf("healthy cell %d was re-run instead of restored", i)
		}
	}
}

// TestGridFaultValidation pins the new spec errors: negative retry
// budgets and unknown error modes are rejected before anything runs.
func TestGridFaultValidation(t *testing.T) {
	runner := mpic.NewRunner()
	defer runner.Close()
	grid := faultGrid(t, nil, 0)
	grid.Retries = -1
	if _, err := runner.CollectGrid(context.Background(), grid); err == nil || !strings.Contains(err.Error(), "Retries") {
		t.Errorf("negative Retries: got %v", err)
	}
	grid = faultGrid(t, nil, 0)
	grid.OnCellError = mpic.CellErrorMode(7)
	if _, err := runner.CollectGrid(context.Background(), grid); err == nil || !strings.Contains(err.Error(), "OnCellError") {
		t.Errorf("unknown error mode: got %v", err)
	}
}

// TestGridCancelNotRetried pins the cancellation carve-out: a cell that
// fails because the context was cancelled is not retried — the retry
// budget is for faults, not for outliving the caller.
func TestGridCancelNotRetried(t *testing.T) {
	runner := mpic.NewRunner()
	defer runner.Close()
	grid := faultGrid(t, nil, 0)
	retries := 0
	grid.Retries = 4
	grid.Workers = 1
	grid.Progress = func(p mpic.GridProgress) {
		if p.Event == mpic.GridCellRetrying {
			retries++
		}
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := runner.CollectGrid(ctx, grid); err == nil {
		t.Fatal("cancelled grid reported success")
	}
	if retries != 0 {
		t.Errorf("cancelled cell was retried %d times, want 0", retries)
	}
}

// TestGridCancelBetweenAttemptsPrompt pins that a grid cancelled while a
// cell is between attempts returns at once: the next attempt runs
// straight away, finds the context cancelled and ends the grid, with no
// backoff to sit out first.
func TestGridCancelBetweenAttemptsPrompt(t *testing.T) {
	runner := mpic.NewRunner()
	defer runner.Close()
	grid := faultGrid(t, &flakyObserver{failLeft: 1 << 30}, 0)
	grid.Cells = grid.Cells[:1]
	grid.Retries = 12
	grid.Workers = 1
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var cancelledAt time.Time
	grid.Progress = func(p mpic.GridProgress) {
		if p.Event == mpic.GridCellRetrying && p.Attempt == 9 {
			cancelledAt = time.Now()
			cancel()
		}
	}
	err := runner.RunGrid(ctx, grid, nil)
	took := time.Since(cancelledAt)
	if cancelledAt.IsZero() {
		t.Fatalf("the cell never reached its 9th retry: %v", err)
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("got %v, want an error wrapping context.Canceled", err)
	}
	if took > 250*time.Millisecond {
		t.Errorf("RunGrid returned %v after the cancel, want at most 250ms", took)
	}
}

// TestInjectedCellFaultsThroughEngine wires the faults package's cell
// plan through the public engine: an injected panic travels the same
// recovery path a real one would, and the typed panic value survives
// into the *CellPanicError.
func TestInjectedCellFaultsThroughEngine(t *testing.T) {
	runner := mpic.NewRunner()
	defer runner.Close()
	plan := faults.CellPlan{Seed: 5, PanicRate: 1, MaxPanics: 1}
	grid := faultGrid(t, plan.Observer(0), 0)
	grid.Cells = grid.Cells[:1]
	grid.Workers = 1
	_, err := runner.CollectGrid(context.Background(), grid)
	var cp *mpic.CellPanicError
	if !errors.As(err, &cp) {
		t.Fatalf("got %v, want *CellPanicError", err)
	}
	if _, ok := cp.Value.(faults.InjectedPanic); !ok {
		t.Errorf("panic value %T did not survive recovery", cp.Value)
	}
}
