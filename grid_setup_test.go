package mpic_test

import (
	"context"
	"errors"
	"fmt"
	"path/filepath"
	"reflect"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"weak"

	"mpic"
)

// The grid shares one protocol set-up among the runs that name the same
// (topology, n, workload, rounds, seed). The workloads below count and
// sabotage the builds that sharing should save: each builds the random
// workload, so a run under any of them equals the same run under
// "random".
var (
	countingBuilds atomic.Int64
	// builtScheds holds a weak pointer to each counted build's schedule,
	// which its protocol owns: once the schedule is collected, nothing
	// holds the protocol either.
	builtMu     sync.Mutex
	builtScheds []weak.Pointer[mpic.Schedule]
	// failFirst arms one failure: the next build of "test-fail-first"
	// panics (failPanic) or returns an error.
	failFirst atomic.Bool
	failPanic atomic.Bool
)

func init() {
	must := func(err error) {
		if err != nil {
			panic(err)
		}
	}
	must(mpic.RegisterWorkload("test-counting", mpic.WorkloadDef{
		Build: func(g *mpic.Graph, rounds int, seed int64) (mpic.Protocol, error) {
			countingBuilds.Add(1)
			p, err := mpic.NewWorkload("random", g, rounds, seed)
			if err == nil {
				builtMu.Lock()
				builtScheds = append(builtScheds, weak.Make(p.Schedule()))
				builtMu.Unlock()
			}
			return p, err
		},
	}))
	must(mpic.RegisterWorkload("test-fail-first", mpic.WorkloadDef{
		Build: func(g *mpic.Graph, rounds int, seed int64) (mpic.Protocol, error) {
			if failFirst.CompareAndSwap(true, false) {
				if failPanic.Load() {
					panic("test-fail-first: injected builder panic")
				}
				return nil, errors.New("test-fail-first: injected builder error")
			}
			return mpic.NewWorkload("random", g, rounds, seed)
		},
	}))
}

// sharedGrid is n 4,5 × schemes A,B × rates 0,0.002 × 2 trials of the
// given workload at seeds 3 and 4, so each of its 4 set-ups (n, seed)
// serves 4 cells, plus one last cell whose one trial, at seed 1000, has
// a set-up of its own.
func sharedGrid(workload string) mpic.Grid {
	base := gridBase()
	base.Workload = mpic.Workload(workload, 40)
	grid := sweep{
		Base:    base,
		N:       []int{4, 5},
		Schemes: []mpic.Scheme{mpic.AlgorithmA, mpic.AlgorithmB},
		Rates:   []float64{0, 0.002},
		Trials:  2,
	}.grid()
	lone := grid.Cells[0]
	lone.Scenario.Seed = 1000
	lone.Trials = 1
	grid.Cells = append(grid.Cells, lone)
	return grid
}

// sharedGridSetups is the number of set-ups sharedGrid's runs name.
const sharedGridSetups = 5

// checkAgainstRunScenario asserts each trial of each cell equals a
// one-shot RunScenario of the trial's scenario under the random
// workload, which the test workloads build.
func checkAgainstRunScenario(t *testing.T, grid mpic.Grid, got []mpic.GridCellResult) {
	t.Helper()
	for i, cell := range grid.Cells {
		if len(got[i].Results) != cell.Trials {
			t.Fatalf("cell %d kept %d results, want %d", i, len(got[i].Results), cell.Trials)
		}
		for trial := 0; trial < cell.Trials; trial++ {
			sc := cell.Scenario
			sc.Seed += int64(trial)
			sc.Workload.Name = "random"
			want, err := mpic.RunScenario(context.Background(), sc)
			if err != nil {
				t.Fatal(err)
			}
			sameResult(t, got[i].Results[trial], want)
		}
	}
}

// TestGridSharedSetupMatchesRunScenario pins that sharing a set-up
// among cells and trials changes no result: every trial of a grid whose
// cells share (topology, workload, seed) across schemes, rates and
// trials equals a one-shot RunScenario, at one worker and at four, and
// the grid builds each shared set-up once.
func TestGridSharedSetupMatchesRunScenario(t *testing.T) {
	runner := mpic.NewRunner()
	defer runner.Close()
	var cells [][]mpic.SweepCell
	for _, workers := range []int{1, 4} {
		grid := sharedGrid("test-counting")
		grid.Workers = workers
		grid.KeepResults = true
		countingBuilds.Store(0)
		got, err := runner.CollectGrid(context.Background(), grid)
		if err != nil {
			t.Fatal(err)
		}
		if n := countingBuilds.Load(); n != sharedGridSetups {
			t.Errorf("workers=%d: %d builds, want one per set-up (%d)", workers, n, sharedGridSetups)
		}
		checkAgainstRunScenario(t, grid, got)
		var agg []mpic.SweepCell
		for _, res := range got {
			agg = append(agg, res.Cell)
		}
		cells = append(cells, agg)
	}
	if !reflect.DeepEqual(cells[0], cells[1]) {
		t.Error("the grid's cells differ between one worker and four")
	}
}

// TestGridSharedSetupResumeAndRetries pins sharing across a resume from
// a partial store and across retried attempts: both reproduce the
// uninterrupted grid's cells.
func TestGridSharedSetupResumeAndRetries(t *testing.T) {
	runner := mpic.NewRunner()
	defer runner.Close()
	ctx := context.Background()
	want, err := runner.CollectGrid(ctx, sharedGrid("random"))
	if err != nil {
		t.Fatal(err)
	}

	t.Run("resume", func(t *testing.T) {
		dir := t.TempDir()
		full := sharedGrid("random")
		full.Workers = 2
		full.Store = mpic.NewFileGridStore(filepath.Join(dir, "full.journal"))
		if _, err := runner.CollectGrid(ctx, full); err != nil {
			t.Fatal(err)
		}
		spec := full.Fingerprint()
		saved, err := full.Store.Load(spec)
		if err != nil {
			t.Fatal(err)
		}
		// An interrupted session: a fresh store holding only some cells,
		// so the resumed grid shares set-ups among the rest.
		partial := mpic.NewFileGridStore(filepath.Join(dir, "partial.journal"))
		if err := partial.Save(spec, saved[:6]); err != nil {
			t.Fatal(err)
		}
		resumed := sharedGrid("random")
		resumed.Workers = 2
		resumed.Store = partial
		got, err := runner.CollectGrid(ctx, resumed)
		if err != nil {
			t.Fatal(err)
		}
		restored := 0
		for i := range want {
			if got[i].Restored {
				restored++
			}
			if !reflect.DeepEqual(got[i].Cell, want[i].Cell) {
				t.Errorf("cell %d after resume differs:\n got %+v\nwant %+v", i, got[i].Cell, want[i].Cell)
			}
		}
		if restored != 6 {
			t.Errorf("resume restored %d cells, want 6", restored)
		}
	})

	t.Run("retries", func(t *testing.T) {
		grid := sharedGrid("random")
		grid.Workers = 4
		grid.Retries = 2
		// Cell 1 shares its set-ups with cells 0, 2 and 3; its first two
		// attempts panic after the set-up is built.
		sc := grid.Cells[1].Scenario
		sc.Observers = []mpic.Observer{&flakyObserver{failLeft: 2}}
		grid.Cells[1].Scenario = sc
		got, err := runner.CollectGrid(ctx, grid)
		if err != nil {
			t.Fatal(err)
		}
		for i := range want {
			if !reflect.DeepEqual(got[i].Cell, want[i].Cell) {
				t.Errorf("cell %d after retries differs:\n got %+v\nwant %+v", i, got[i].Cell, want[i].Cell)
			}
		}
		if got[1].Attempts != 3 {
			t.Errorf("cell 1 ran %d attempts, want 3", got[1].Attempts)
		}
	})
}

// TestGridSharedSetupReleased pins the memo's lifetime: a set-up is
// dropped once the last cell naming it has finished, so mid-grid the
// finished n=4 set-ups are collectable, and none outlives RunGrid — a
// second RunGrid on the same Runner builds every set-up again.
func TestGridSharedSetupReleased(t *testing.T) {
	runner := mpic.NewRunner()
	defer runner.Close()
	live := func() int {
		runtime.GC()
		builtMu.Lock()
		defer builtMu.Unlock()
		n := 0
		for _, w := range builtScheds {
			if w.Value() != nil {
				n++
			}
		}
		return n
	}
	for run := 0; run < 2; run++ {
		grid := sharedGrid("test-counting")
		grid.Cells = grid.Cells[:8] // the n=4 cells, then the n=5 cells
		grid.Workers = 1
		countingBuilds.Store(0)
		builtMu.Lock()
		builtScheds = nil
		builtMu.Unlock()
		midGrid := -1
		err := runner.RunGrid(context.Background(), grid, func(res mpic.GridCellResult) {
			if res.Index == 4 {
				// Every n=4 cell has finished; only the first n=5 cell's
				// two set-ups may be live.
				midGrid = live()
			}
		})
		if err != nil {
			t.Fatal(err)
		}
		if n := countingBuilds.Load(); n != 4 {
			t.Errorf("run %d: %d builds, want 4", run, n)
		}
		if midGrid != 2 {
			t.Errorf("run %d: %d set-ups live after the n=4 cells finished, want the 2 of n=5", run, midGrid)
		}
		if n := live(); n != 0 {
			t.Errorf("run %d: %d set-ups live after RunGrid returned, want 0", run, n)
		}
	}
}

// TestGridSharedSetupBuildFailure pins that a failed shared build is not
// memoized: the cell whose build panics or errors reports its own
// *CellPanicError or error, and every later user of the same set-up
// builds it again and runs correctly.
func TestGridSharedSetupBuildFailure(t *testing.T) {
	runner := mpic.NewRunner()
	defer runner.Close()
	want, err := runner.CollectGrid(context.Background(), sharedGrid("random"))
	if err != nil {
		t.Fatal(err)
	}
	for _, panics := range []bool{true, false} {
		t.Run(fmt.Sprintf("panic=%v", panics), func(t *testing.T) {
			grid := sharedGrid("test-fail-first")
			grid.Workers = 1
			grid.OnCellError = mpic.QuarantineCells
			failPanic.Store(panics)
			failFirst.Store(true)
			got := make([]mpic.GridCellResult, len(grid.Cells))
			err := runner.RunGrid(context.Background(), grid, func(res mpic.GridCellResult) { got[res.Index] = res })
			var failure *mpic.GridFailure
			if !errors.As(err, &failure) || len(failure.Report.Failed) != 1 || failure.Report.Failed[0].Index != 0 {
				t.Fatalf("RunGrid = %v, want a GridFailure of cell 0 alone", err)
			}
			var cellPanic *mpic.CellPanicError
			if isPanic := errors.As(got[0].Err, &cellPanic); isPanic != panics {
				t.Errorf("cell 0 failed with %v; want a CellPanicError: %v", got[0].Err, panics)
			}
			for i := 1; i < len(grid.Cells); i++ {
				if got[i].Err != nil || !reflect.DeepEqual(got[i].Cell, want[i].Cell) {
					t.Errorf("cell %d after the failed build: %+v (err %v), want %+v", i, got[i].Cell, got[i].Err, want[i].Cell)
				}
			}
		})
	}
}
