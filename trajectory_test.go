package mpic_test

import (
	"context"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"reflect"
	"runtime"
	"testing"

	"mpic"
)

// trajectoryScenario is a noisy Algorithm A run long enough for its
// potential trajectory to move: 4-party line, 40 rounds of random
// traffic, random noise at 0.002.
func trajectoryScenario() mpic.Scenario {
	sc := gridBase()
	sc.Scheme = mpic.AlgorithmA
	sc.Noise = mpic.RandomNoise(0.002)
	return sc
}

// trajectoryPin is the SHA-256 of trajectoryScenario's JSON-encoded
// Result.Potential, taken before grid cells stopped recording the
// trajectory for readers that never see it.
const trajectoryPin = "1b3ae8b6a232d057efaa94a7f554036abaa8527e4dbe83f7cbd32fb8040aeb2f"

func trajectoryDigest(t *testing.T, snaps []mpic.Snapshot) string {
	t.Helper()
	b, err := json.Marshal(snaps)
	if err != nil {
		t.Fatal(err)
	}
	return fmt.Sprintf("%x", sha256.Sum256(b))
}

// snapshotRecorder keeps every per-iteration snapshot pointer an
// observer is handed, and the Result its run ends with.
type snapshotRecorder struct {
	snaps []*mpic.Snapshot
	res   *mpic.Result
}

func (r *snapshotRecorder) IterationDone(st mpic.IterationStats) {
	r.snaps = append(r.snaps, st.Snapshot)
}

func (r *snapshotRecorder) RunDone(res *mpic.Result) { r.res = res }

// TestTrajectoryOnlyForResultReaders pins who receives the potential
// trajectory. Runner.Run, RunScenario and a KeepResults grid cell return
// the full trajectory, equal to the pinned one. A grid cell without
// KeepResults hands its RunEndObserver a Result with a nil Potential,
// while an attached observer still gets one distinct, non-nil snapshot
// per iteration, each equal to the trajectory's entry and still intact
// after the run.
func TestTrajectoryOnlyForResultReaders(t *testing.T) {
	ctx := context.Background()
	runner := mpic.NewRunner()
	defer runner.Close()
	sc := trajectoryScenario()

	want, err := runner.Run(ctx, sc)
	if err != nil {
		t.Fatal(err)
	}
	if len(want.Potential) != want.Iterations || want.Iterations < 2 {
		t.Fatalf("Runner.Run recorded %d snapshots over %d iterations", len(want.Potential), want.Iterations)
	}
	if got := trajectoryDigest(t, want.Potential); got != trajectoryPin {
		t.Errorf("Runner.Run trajectory digest %s, want %s", got, trajectoryPin)
	}
	one, err := mpic.RunScenario(ctx, sc)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(one.Potential, want.Potential) {
		t.Error("RunScenario trajectory differs from Runner.Run's")
	}

	for _, keep := range []bool{true, false} {
		rec := &snapshotRecorder{}
		cell := sc
		cell.Observers = []mpic.Observer{rec}
		cells, err := runner.CollectGrid(ctx, mpic.Grid{Cells: []mpic.GridCell{{Scenario: cell}}, KeepResults: keep})
		if err != nil {
			t.Fatal(err)
		}
		if rec.res == nil {
			t.Fatalf("keep=%v: the RunEndObserver saw no Result", keep)
		}
		if keep {
			if got := cells[0].Results[0]; !reflect.DeepEqual(got.Potential, want.Potential) {
				t.Error("a KeepResults cell's trajectory differs from Runner.Run's")
			}
		} else if rec.res.Potential != nil {
			t.Errorf("a cell without KeepResults recorded %d snapshots", len(rec.res.Potential))
		}
		// Collect whatever the run left, so a snapshot the engine reused
		// or freed would show.
		runtime.GC()
		if len(rec.snaps) != want.Iterations {
			t.Fatalf("keep=%v: observer saw %d snapshots, want %d", keep, len(rec.snaps), want.Iterations)
		}
		seen := make(map[*mpic.Snapshot]bool, len(rec.snaps))
		for i, s := range rec.snaps {
			if s == nil {
				t.Fatalf("keep=%v: iteration %d: nil snapshot", keep, i)
			}
			if seen[s] {
				t.Fatalf("keep=%v: iteration %d: snapshot shared with an earlier iteration", keep, i)
			}
			seen[s] = true
			if *s != want.Potential[i] {
				t.Errorf("keep=%v: iteration %d: observer snapshot %+v, want %+v", keep, i, *s, want.Potential[i])
			}
		}
	}
}

// TestGridCellAllocs guards the bytes a warm grid cell allocates: a
// Runner that has run the cell once runs it again without KeepResults
// drawing its exchange slabs from the arena and recording no potential
// trajectory. The cell is Algorithm A on a 6-party line, 180 rounds of
// random traffic at noise 0.001, IterFactor 12 — a grid-session cell of
// 51 iterations. It allocates about 50.6 KB, mostly its protocol set-up,
// its parties and their transcripts. When each run made its exchange
// slabs, 3·m·(codeword bits) = 3·5·496 = 7.4 KB, and every grid cell
// recorded its trajectory, 51 snapshots of 72 B plus the append's growth
// copies = 9.4 KB, it allocated 68.4 KB and failed this bound.
func TestGridCellAllocs(t *testing.T) {
	if testing.Short() || raceEnabled {
		t.Skip("measures allocations over repeated grid runs; -race reallocates pooled generators")
	}
	sc := mpic.Scenario{
		Topology:   mpic.Line(6),
		Workload:   mpic.RandomTraffic(180),
		Noise:      mpic.RandomNoise(0.001),
		Scheme:     mpic.AlgorithmA,
		Seed:       1,
		IterFactor: 12,
	}
	grid := mpic.Grid{Cells: []mpic.GridCell{{Scenario: sc}}, Workers: 1}
	runner := mpic.NewRunner()
	defer runner.Close()
	run := func() {
		if err := runner.RunGrid(context.Background(), grid, nil); err != nil {
			t.Fatal(err)
		}
	}
	run()
	const cells = 20
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	for i := 0; i < cells; i++ {
		run()
	}
	runtime.ReadMemStats(&after)
	const maxBytesPerCell = 56 << 10
	if got := (after.TotalAlloc - before.TotalAlloc) / cells; got > maxBytesPerCell {
		t.Errorf("a warm grid cell allocates %d B, want at most %d", got, maxBytesPerCell)
	}
}
