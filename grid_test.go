package mpic_test

import (
	"context"
	"errors"
	"reflect"
	"sync/atomic"
	"testing"

	"mpic"
)

// gridBase is the small scenario the engine tests grid over.
func gridBase() mpic.Scenario {
	return mpic.Scenario{
		Topology:   mpic.Line(4),
		Workload:   mpic.RandomTraffic(40),
		Noise:      mpic.RandomNoise(0),
		Seed:       3,
		IterFactor: 12,
	}
}

// sweep expands a typed base scenario over cartesian axes into grid
// cells: every combination of N, Schemes, Rates and Delays, nested in
// that order (an empty axis keeps the base value), with Trials seeds per
// cell at SeedStep stride. The rate axis re-rates Base.Noise.
type sweep struct {
	Base     mpic.Scenario
	N        []int
	Schemes  []mpic.Scheme
	Rates    []float64
	Delays   []mpic.DelaySpec
	Trials   int
	SeedStep int64
}

func (sw sweep) grid() mpic.Grid {
	ns, schemes, rates, delays := sw.N, sw.Schemes, sw.Rates, sw.Delays
	if len(ns) == 0 {
		ns = []int{sw.Base.Topology.N}
	}
	if len(schemes) == 0 {
		schemes = []mpic.Scheme{sw.Base.Scheme}
	}
	if len(rates) == 0 {
		rates = []float64{0}
	}
	if len(delays) == 0 {
		delays = []mpic.DelaySpec{sw.Base.Delay}
	}
	var grid mpic.Grid
	for _, n := range ns {
		for _, scheme := range schemes {
			for _, rate := range rates {
				for _, delay := range delays {
					sc := sw.Base
					sc.Topology.N = n
					sc.Scheme = scheme
					if len(sw.Rates) > 0 {
						sc.Noise = sc.Noise.WithRate(rate)
					}
					sc.Delay = delay
					grid.Cells = append(grid.Cells, mpic.GridCell{
						Key: mpic.GridKey{Rate: rate}, Scenario: sc,
						Trials: sw.Trials, SeedStep: sw.SeedStep,
					})
				}
			}
		}
	}
	return grid
}

// TestGridParallelSequentialIdentical is the engine's determinism pin:
// the same grid executed sequentially (Workers=1) and on a worker pool
// (Workers=4) produces bit-identical cells, trial for trial — the
// property that makes parallel sweeps trustworthy and checkpointed runs
// mergeable.
func TestGridParallelSequentialIdentical(t *testing.T) {
	grid := sweep{
		Base:     gridBase(),
		N:        []int{4, 5},
		Schemes:  []mpic.Scheme{mpic.AlgorithmA, mpic.Algorithm1},
		Rates:    []float64{0, 0.002},
		Trials:   2,
		SeedStep: 100,
	}.grid()
	runner := mpic.NewRunner()
	defer runner.Close()

	grid.Workers = 1
	seq := collectCells(t, runner, grid)
	grid.Workers = 4
	par := collectCells(t, runner, grid)
	if len(seq) != 8 || len(par) != len(seq) {
		t.Fatalf("got %d sequential and %d parallel cells, want 8", len(seq), len(par))
	}
	for i := range seq {
		if !reflect.DeepEqual(seq[i], par[i]) {
			t.Errorf("cell %d differs:\nsequential: %+v\nparallel:   %+v", i, seq[i], par[i])
		}
	}
}

// TestGridStreamsBeforeCompletion pins the engine's streaming contract:
// the sink receives completed cells while later cells have not even
// started — the property `mpicbench -sweep` relies on to print rows and
// write checkpoints as a long grid progresses.
func TestGridStreamsBeforeCompletion(t *testing.T) {
	var runsStarted atomic.Int64
	base := gridBase()
	base.Observers = []mpic.Observer{startCounter{&runsStarted}}
	grid := sweep{Base: base, Rates: []float64{0, 0.001, 0.002}}.grid()
	grid.Workers = 1

	type delivery struct {
		index   int
		started int64
	}
	var deliveries []delivery
	runner := mpic.NewRunner()
	defer runner.Close()
	err := runner.RunGrid(context.Background(), grid, func(res mpic.GridCellResult) {
		deliveries = append(deliveries, delivery{res.Index, runsStarted.Load()})
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(deliveries) != 3 {
		t.Fatalf("sink saw %d cells, want 3", len(deliveries))
	}
	first := deliveries[0]
	if first.started >= 3 {
		t.Fatalf("first cell was delivered only after all %d runs had started — grid did not stream", first.started)
	}
	if first.started < 1 {
		t.Fatalf("first delivery before any run started (%d)", first.started)
	}
}

// startCounter counts RunStarted callbacks; safe for concurrent cells.
type startCounter struct{ n *atomic.Int64 }

func (s startCounter) IterationDone(mpic.IterationStats) {}
func (s startCounter) RunStarted(mpic.RunInfo)           { s.n.Add(1) }

// TestGridDuplicateKeys pins the keyed-merge fallback: cells with equal
// (n, scheme, rate) keys assemble in definition order.
func TestGridDuplicateKeys(t *testing.T) {
	runner := mpic.NewRunner()
	defer runner.Close()
	grid := sweep{Base: gridBase(), N: []int{4, 4}}.grid()
	grid.Workers = 4
	cells := collectCells(t, runner, grid)
	if len(cells) != 2 {
		t.Fatalf("got %d cells, want 2", len(cells))
	}
	if !reflect.DeepEqual(cells[0], cells[1]) {
		t.Errorf("duplicate-key cells differ: %+v vs %+v", cells[0], cells[1])
	}
	if cells[0].Trials != 1 || cells[0].N != 4 {
		t.Errorf("unexpected duplicate-key cell: %+v", cells[0])
	}
}

// TestGridKeepResults pins the per-trial result retention and the
// derived key of a zero-Key cell.
func TestGridKeepResults(t *testing.T) {
	runner := mpic.NewRunner()
	defer runner.Close()
	results, err := runner.CollectGrid(context.Background(), mpic.Grid{
		Cells: []mpic.GridCell{
			{Scenario: gridBase(), Trials: 2, SeedStep: 11},
		},
		KeepResults: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	res := results[0]
	if res.Key.N != 4 || res.Key.Scheme != mpic.AlgorithmA || res.Key.Rate != 0 {
		t.Errorf("derived key = %+v, want n=4 scheme=A rate=0", res.Key)
	}
	if len(res.Results) != 2 {
		t.Fatalf("kept %d results, want 2", len(res.Results))
	}
	for i, r := range res.Results {
		if r == nil || r.Iterations == 0 {
			t.Errorf("trial %d result empty: %+v", i, r)
		}
		if float64(r.Iterations) != res.Cell.Iterations[i] {
			t.Errorf("trial %d: kept result iterations %d != aggregate %g", i, r.Iterations, res.Cell.Iterations[i])
		}
	}
	// Without KeepResults the per-trial results are dropped.
	slim, err := runner.CollectGrid(context.Background(), mpic.Grid{
		Cells: []mpic.GridCell{{Scenario: gridBase()}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if slim[0].Results != nil {
		t.Error("Results kept without KeepResults")
	}
}

// TestGridErrorAborts pins the failure contract: a failing cell aborts
// the grid with its error; already-completed cells stream first.
func TestGridErrorAborts(t *testing.T) {
	bad := gridBase()
	bad.Topology = mpic.Topology("no-such-family", 4)
	runner := mpic.NewRunner()
	defer runner.Close()
	streamed := 0
	err := runner.RunGrid(context.Background(), mpic.Grid{
		Cells: []mpic.GridCell{
			{Scenario: gridBase()},
			{Scenario: bad},
		},
		Workers: 1,
	}, func(mpic.GridCellResult) { streamed++ })
	if err == nil {
		t.Fatal("grid with an unknown topology family succeeded")
	}
	if streamed != 1 {
		t.Errorf("streamed %d cells before the failure, want 1", streamed)
	}
}

// TestGridCancellation pins context semantics: cancelling mid-grid
// returns context.Canceled and stops claiming cells.
func TestGridCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	runner := mpic.NewRunner()
	defer runner.Close()
	grid := sweep{Base: gridBase(), Rates: []float64{0, 0.001, 0.002, 0.003}}.grid()
	grid.Workers = 1
	delivered := 0
	err := runner.RunGrid(ctx, grid, func(mpic.GridCellResult) {
		delivered++
		cancel()
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("got %v, want context.Canceled", err)
	}
	if delivered != 1 {
		t.Errorf("delivered %d cells after cancellation, want 1", delivered)
	}
}

// TestGridCancelAfterLastCell pins the completed-grid contract: a
// cancellation that lands only after every cell has streamed (e.g. a
// sink using the context as an early-stop signal) must not make the
// caller discard a complete result set.
func TestGridCancelAfterLastCell(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	runner := mpic.NewRunner()
	defer runner.Close()
	grid := sweep{Base: gridBase(), Rates: []float64{0, 0.001}}.grid()
	grid.Workers = 1
	delivered := 0
	err := runner.RunGrid(ctx, grid, func(mpic.GridCellResult) {
		delivered++
		if delivered == len(grid.Cells) {
			cancel()
		}
	})
	if err != nil {
		t.Fatalf("complete grid reported %v after post-completion cancel", err)
	}
	if delivered != 2 {
		t.Fatalf("delivered %d cells, want 2", delivered)
	}
}

// TestGridArenaTelemetry pins the arena counters: a second same-shaped
// grid through the same Runner draws all its prefix-hash stores from the
// arena (hits, words reused, no misses: a run builds a store only when the
// free list is empty), and each run's delta is surfaced through
// Result.Arena.
func TestGridArenaTelemetry(t *testing.T) {
	runner := mpic.NewRunner()
	defer runner.Close()
	grid := mpic.Grid{
		Cells:       []mpic.GridCell{{Scenario: gridBase()}},
		KeepResults: true,
	}
	cold, err := runner.CollectGrid(context.Background(), grid)
	if err != nil {
		t.Fatal(err)
	}
	warm, err := runner.CollectGrid(context.Background(), grid)
	if err != nil {
		t.Fatal(err)
	}
	st := cold[0].Results[0].Arena
	if st == nil || st.Misses == 0 {
		t.Fatalf("cold run arena stats = %+v, want misses > 0", st)
	}
	if st.Hits != 0 {
		t.Errorf("cold run reused %d stores from an empty arena", st.Hits)
	}
	wst := warm[0].Results[0].Arena
	if wst == nil || wst.Hits == 0 || wst.WordsReused == 0 || wst.Misses != 0 {
		t.Fatalf("warm run arena stats = %+v, want hits and words reused > 0 and no misses", wst)
	}
	// A never-refreshed epoch run draws from the same arena.
	inc := gridBase()
	inc.EpochRefresh = 1 << 30
	incGrid := mpic.Grid{Cells: []mpic.GridCell{{Scenario: inc}}, KeepResults: true}
	if _, err := runner.CollectGrid(context.Background(), incGrid); err != nil {
		t.Fatal(err)
	}
	incWarm, err := runner.CollectGrid(context.Background(), incGrid)
	if err != nil {
		t.Fatal(err)
	}
	ist := incWarm[0].Results[0].Arena
	if ist == nil || ist.Hits == 0 {
		t.Fatalf("warm never-refreshed run arena stats = %+v, want hits > 0", ist)
	}
}
