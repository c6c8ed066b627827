package mpic

import (
	"context"
	"reflect"
	"runtime"
	"testing"

	"mpic/internal/cores"
)

// elasticGrid is the Parallel-scenario grid the elastic-split test and
// benchmark run: n ∈ {4,5,6} × schemes {A, 1}, two trials per cell.
func elasticGrid() Grid {
	var grid Grid
	for _, n := range []int{4, 5, 6} {
		for _, scheme := range []Scheme{AlgorithmA, Algorithm1} {
			grid.Cells = append(grid.Cells, GridCell{
				Scenario: Scenario{
					Topology:   Line(n),
					Workload:   RandomTraffic(48),
					Scheme:     scheme,
					Noise:      RandomNoise(0.002),
					Seed:       11,
					IterFactor: 12,
					Parallel:   true,
				},
				Trials: 2,
			})
		}
	}
	return grid
}

// TestGridElasticSplitIdentical pins the elastic worker split end to
// end: a grid of Parallel scenarios run sequentially (Workers=1, so the
// lone cell worker leaves most of the core budget spare for round
// pools) and at full width (Workers=GOMAXPROCS, so heavy rounds mostly
// find the budget saturated and run on their own core) must produce
// bit-identical cells — the budget moves wall clock, never results. The
// occupancy snapshots must show the round engines actually consulted
// the budget and returned every borrowed token.
func TestGridElasticSplitIdentical(t *testing.T) {
	old := runtime.GOMAXPROCS(4)
	defer runtime.GOMAXPROCS(old)

	grid := elasticGrid()

	runAt := func(workers int) ([]SweepCell, cores.Stats) {
		t.Helper()
		runner := NewRunner()
		defer runner.Close()
		grid := grid
		grid.Workers = workers
		results, err := runner.CollectGrid(context.Background(), grid)
		if err != nil {
			t.Fatalf("Workers=%d: %v", workers, err)
		}
		cells := make([]SweepCell, len(results))
		for i, r := range results {
			cells[i] = r.Cell
		}
		return cells, runner.gridPoolStats()
	}

	seq, seqStats := runAt(1)
	par, parStats := runAt(4)
	if !reflect.DeepEqual(seq, par) {
		t.Fatalf("elastic grid cells differ between Workers=1 and Workers=4:\n%+v\nvs\n%+v", seq, par)
	}
	for _, st := range []cores.Stats{seqStats, parStats} {
		if st.Total != 4 {
			t.Fatalf("budget sized %d, want GOMAXPROCS=4 (%+v)", st.Total, st)
		}
		if st.Borrows == 0 {
			t.Fatalf("no heavy round ever consulted the budget (%+v)", st)
		}
		if st.Held != 0 {
			t.Fatalf("%d tokens still out after the grid (%+v)", st.Held, st)
		}
	}
	// A lone cell worker leaves three spare cores: its heavy rounds must
	// actually receive helpers.
	if seqStats.Granted == 0 {
		t.Fatalf("Workers=1 grid got no helper cores (%+v)", seqStats)
	}
}

// BenchmarkGridElastic measures the two parallel engines sharing one
// core budget: a grid of Parallel scenarios at full worker width
// (Workers = GOMAXPROCS). Run with -cpu 1,4,8 for the PERF.md elastic
// table — at -cpu 1 the budget is a single token (every borrow denied,
// pure sequential), while wider settings split the machine between cell
// workers and round pools. The occ metric is helper cores granted per
// borrow attempt (0 = round pools starved, higher = spare cores really
// flowed to heavy rounds).
func BenchmarkGridElastic(b *testing.B) {
	grid := elasticGrid()
	runner := NewRunner()
	defer runner.Close()
	var borrows, granted int64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := runner.RunGrid(context.Background(), grid, func(GridCellResult) {}); err != nil {
			b.Fatal(err)
		}
		st := runner.gridPoolStats()
		borrows += st.Borrows
		granted += st.Granted
	}
	b.StopTimer()
	if borrows > 0 {
		b.ReportMetric(float64(granted)/float64(borrows), "occ")
	}
}
