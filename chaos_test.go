package mpic

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"sync"
	"testing"
	"time"

	"mpic/internal/faults"
)

// TestChaosGridSoak is the capstone fault-tolerance pin (`make chaos`
// runs it under -race): the full registry-cartesian grid executes as a
// durable parallel session while everything that can go wrong does, on a
// deterministic seed-driven schedule —
//
//   - the session store injects Save/Load errors and tears the journal
//     inside its final record after "successful" writes (absorbed by
//     RetryingGridStore and FileGridStore's torn-tail recovery, which
//     cuts the record off and lets the engine append it again),
//   - a fault plan makes a fraction of the cells panic mid-run on their
//     leading attempts (absorbed by the engine's panic recovery and
//     Grid.Retry),
//   - the first pass is cancelled mid-flight and the journal torn behind
//     its back (absorbed by torn-tail recovery on resume, which re-runs
//     the lost cell).
//
// Despite all of it, the finished grid must be bit-identical to a clean
// sequential run — the repo's core determinism contract extended to the
// failure domain.
func TestChaosGridSoak(t *testing.T) {
	cells, labels, _ := cartesianCells(t)
	runner := NewRunner()
	defer runner.Close()

	// Clean sequential baseline: no store, no faults, one worker.
	want, err := runner.CollectGrid(context.Background(), Grid{Cells: cells, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}

	// The faulty session store: FileGridStore at the bottom, deterministic
	// fault injection in the middle, bounded retries on top. Torn writes
	// truncate the journal inside its final record — the exact shape a
	// crash during an append leaves.
	path := filepath.Join(t.TempDir(), "chaos.json")
	inner := NewFileGridStore(path)
	var recoveries []error
	inner.OnRecovery = func(reason error) { recoveries = append(recoveries, reason) }
	faulty := faults.NewFaultyStore[StoredCell](inner, faults.StoreFaults{
		Seed:          42,
		SaveErrorRate: 0.2,
		LoadErrorRate: 0.2,
		TornRate:      0.15,
	})
	faulty.Tear = func() error { return tearFinalRecord(path) }
	store := &RetryingGridStore{Inner: faulty, MaxAttempts: 8, Sleep: func(time.Duration) {}}

	// The cell fault plan: roughly a third of the cells panic mid-run on
	// up to two leading attempts — always fewer than the retry budget, so
	// every cell eventually completes.
	plan := faults.CellPlan{Seed: 99, PanicRate: 0.35, MaxPanics: 2}
	afflicted := 0
	for i := range cells {
		if plan.Panics(i) > 0 {
			afflicted++
		}
	}
	if afflicted == 0 {
		t.Fatal("fault plan afflicts no cells; the soak would prove nothing")
	}
	// Fault agents are stateful (they count down their panic budget), so
	// every pass gets a fresh grid with fresh agents.
	makeGrid := func() Grid {
		cc := make([]GridCell, len(cells))
		for i, c := range cells {
			sc := c.Scenario
			sc.Observers = append(append([]Observer(nil), sc.Observers...), plan.Observer(i))
			c.Scenario = sc
			cc[i] = c
		}
		return Grid{
			Cells: cc, Workers: 4,
			Store: store, Spec: "chaos-soak",
			Retry: RetryPolicy{MaxAttempts: 3, JitterSeed: 7, Sleep: func(time.Duration) {}},
		}
	}

	// Pass 1: cancel mid-flight, a third of the way through.
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	streamed := 0
	err = runner.RunGrid(ctx, makeGrid(), func(GridCellResult) {
		streamed++
		if streamed == len(cells)/3 {
			cancel()
		}
	})
	if err == nil {
		t.Fatal("cancelled pass reported success")
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled pass returned %v, want a context.Canceled-derived error", err)
	}

	// Tear the journal behind the session's back — a crash mid-append.
	// Resume must cut off the torn record and re-run its cell, not abort
	// and not silently restart from zero.
	if err := tearFinalRecord(path); err != nil {
		t.Fatal(err)
	}

	// Pass 2: run to completion under the same fault schedule.
	got, err := runner.CollectGrid(context.Background(), makeGrid())
	if err != nil {
		t.Fatal(err)
	}
	if len(recoveries) == 0 {
		t.Error("torn journal did not trigger torn-tail recovery")
	}
	restored := 0
	for i := range want {
		if got[i].Restored {
			restored++
		}
		if got[i].Err != nil {
			t.Fatalf("%s: cell failed despite retry budget: %v", labels[i], got[i].Err)
		}
		if !reflect.DeepEqual(got[i].Cell, want[i].Cell) {
			t.Errorf("%s: chaos run diverged from clean sequential run:\n got %+v\nwant %+v",
				labels[i], got[i].Cell, want[i].Cell)
		}
	}
	if restored == 0 {
		t.Error("resume restored nothing; the session store never held good state")
	}
	if restored == len(want) {
		t.Error("resume restored everything; the corruption wound back no cells")
	}

	// The schedule must actually have injected faults in every stream —
	// otherwise the soak silently stopped soaking.
	st := faulty.Stats()
	if st.SaveErrors == 0 || st.Tears == 0 {
		t.Errorf("store fault schedule injected nothing: %+v", st)
	}
	t.Logf("chaos soak: %d cells (%d afflicted by panics), %d restored on resume, %d store recoveries, store stats %+v",
		len(cells), afflicted, restored, len(recoveries), st)
}

// tearFinalRecord truncates a session journal inside its final record —
// what a crash mid-append leaves behind.
func tearFinalRecord(path string) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	start := bytes.LastIndexByte(data[:len(data)-1], '\n') + 1
	return os.Truncate(path, int64(start+(len(data)-start)/2))
}

// TestChaosNetworkSoak extends the chaos contract to the virtual-time
// network (`make chaos` runs it under -race): a grid whose every cell
// runs on the DES path — jitter, lognormal, and banded delay models,
// with link outages, delay spikes, a straggler party, and one
// crash-restart layered on top — executes as a durable parallel session
// against a fault-injecting store, is cancelled mid-flight, and resumes.
// The finished grid must be bit-identical to a clean sequential run,
// per-trial virtual-time metrics included: timing faults are seed-pure
// noise, not nondeterminism.
func TestChaosNetworkSoak(t *testing.T) {
	schedule := &NetFaults{
		OutageRate: 0.01, SpikeRate: 0.05,
		Stragglers: 1, Crashes: 1, CrashLen: 15,
	}
	var cells []GridCell
	for _, n := range []int{4, 5} {
		for _, d := range []DelaySpec{JitterDelay(0.8), LognormalDelay(0.3), BandedDelay(0.25)} {
			cells = append(cells, GridCell{
				Scenario: Scenario{
					Topology: Clique(n), Workload: RandomTraffic(40),
					Noise: RandomNoise(0.002), Seed: 3, IterFactor: 12,
					Delay: d, Faults: schedule,
				},
				Trials: 2, SeedStep: 100,
			})
		}
	}
	runner := NewRunner()
	defer runner.Close()

	// Clean sequential baseline, trials kept for per-trial comparison.
	want, err := runner.CollectGrid(context.Background(), Grid{Cells: cells, Workers: 1, KeepResults: true})
	if err != nil {
		t.Fatal(err)
	}

	path := filepath.Join(t.TempDir(), "netchaos.json")
	inner := NewFileGridStore(path)
	faulty := faults.NewFaultyStore[StoredCell](inner, faults.StoreFaults{
		Seed: 17, SaveErrorRate: 0.2, LoadErrorRate: 0.2,
	})
	store := &RetryingGridStore{Inner: faulty, MaxAttempts: 8, Sleep: func(time.Duration) {}}
	makeGrid := func() Grid {
		return Grid{
			Cells: cells, Workers: 4, KeepResults: true,
			Store: store, Spec: "net-chaos-soak",
		}
	}

	// Pass 1: cancel a third of the way through.
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	streamed := 0
	err = runner.RunGrid(ctx, makeGrid(), func(GridCellResult) {
		streamed++
		if streamed == len(cells)/3 {
			cancel()
		}
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled pass returned %v, want a context.Canceled-derived error", err)
	}

	// Pass 2: resume to completion and compare bit for bit.
	got, err := runner.CollectGrid(context.Background(), makeGrid())
	if err != nil {
		t.Fatal(err)
	}
	restored := 0
	var late, erasures int64
	for i := range want {
		if got[i].Restored {
			restored++
		}
		if !reflect.DeepEqual(got[i].Cell, want[i].Cell) {
			t.Errorf("cell %d (delay %q) diverged from clean sequential run:\n got %+v\nwant %+v",
				i, got[i].Key.Delay, got[i].Cell, want[i].Cell)
		}
		if len(got[i].Results) != len(want[i].Results) {
			t.Fatalf("cell %d kept %d trials, want %d", i, len(got[i].Results), len(want[i].Results))
		}
		for j := range got[i].Results {
			gm, wm := got[i].Results[j].Metrics, want[i].Results[j].Metrics
			if !reflect.DeepEqual(gm, wm) {
				t.Errorf("cell %d trial %d metrics diverged (restored=%v):\n got %+v\nwant %+v",
					i, j, got[i].Restored, gm, wm)
			}
			if gm.Net == nil {
				t.Fatalf("cell %d trial %d has no virtual-time metrics", i, j)
			}
			late += gm.Net.LateSymbols
			erasures += gm.Net.Erasures
		}
	}
	if restored == 0 {
		t.Error("resume restored nothing; the session never held good state")
	}
	if late == 0 || erasures == 0 {
		t.Errorf("the fault schedule never bit: %d late symbols, %d erasures — the soak stopped soaking", late, erasures)
	}
	if st := faulty.Stats(); st.SaveErrors == 0 && st.LoadErrors == 0 {
		t.Errorf("store fault schedule injected nothing: %+v", st)
	}
	t.Logf("network chaos soak: %d cells, %d restored, %d late symbols, %d erasures", len(cells), restored, late, erasures)
}

// shardSoakCells is the deterministic work-list the sharded service
// soak shares between the parent test and its victim subprocess: DES
// delay models with a fault schedule, two seeds per shape, expensive
// enough that a SIGKILL lands mid-grid.
func shardSoakCells() []GridCell {
	schedule := &NetFaults{OutageRate: 0.01, SpikeRate: 0.05, Stragglers: 1}
	var cells []GridCell
	for _, n := range []int{4, 5} {
		for _, d := range []DelaySpec{JitterDelay(0.8), LognormalDelay(0.3), BandedDelay(0.25)} {
			for _, seed := range []int64{3, 9} {
				cells = append(cells, GridCell{
					Scenario: Scenario{
						Topology: Clique(n), Workload: RandomTraffic(40),
						Noise: RandomNoise(0.002), Seed: seed, IterFactor: 12,
						Delay: d, Faults: schedule,
					},
					Trials: 2, SeedStep: 100,
				})
			}
		}
	}
	return cells
}

// shardSoakSpec names the shared session; an explicit spec keeps the
// parent and the subprocess honest about running the same grid.
const shardSoakSpec = "chaos-shard-soak"

// iterationSleeper slows a run down without touching its results —
// observers only watch — so the victim subprocess is guaranteed to be
// mid-cell when the parent kills it.
type iterationSleeper struct{ d time.Duration }

func (s iterationSleeper) IterationDone(IterationStats) { time.Sleep(s.d) }

// TestChaosShardHelper is not a test of its own: it is the victim
// worker process of TestChaosShardedServiceSoak, re-executed from the
// test binary with the session directory in the environment. It leases
// cells from the shared session — deliberately slowed — until the
// parent SIGKILLs it, leaving orphaned leases and a half-finished grid
// behind. Without the environment variable it skips immediately.
func TestChaosShardHelper(t *testing.T) {
	dir := os.Getenv("MPIC_CHAOS_SHARD_DIR")
	if dir == "" {
		t.Skip("helper process for TestChaosShardedServiceSoak")
	}
	cells := shardSoakCells()
	for i := range cells {
		sc := cells[i].Scenario
		sc.Observers = append(append([]Observer(nil), sc.Observers...), iterationSleeper{2 * time.Millisecond})
		cells[i].Scenario = sc
	}
	runner := NewRunner()
	defer runner.Close()
	store := NewDirLeaseStore(dir)
	err := runner.RunGridSharded(context.Background(), Grid{Cells: cells, Spec: shardSoakSpec, KeepResults: true}, store,
		ShardOptions{Worker: "victim", LeaseTTL: 2 * time.Second, Poll: 50 * time.Millisecond}, nil)
	if err != nil {
		t.Fatal(err)
	}
}

// TestChaosShardedServiceSoak is the sharded-service capstone pin
// (`make chaos` runs it under -race): a real second OS process leases
// cells from a shared session directory and is SIGKILLed mid-cell — no
// deferred release, no flush, exactly what a crashed service worker
// leaves behind — after which two in-process workers, themselves
// afflicted by a panic fault plan, must wait out the orphaned leases,
// reclaim the dead worker's cells, and finish the grid. The merged
// session must be bit-identical to a clean sequential run, per-trial
// metrics included.
func TestChaosShardedServiceSoak(t *testing.T) {
	cells := shardSoakCells()
	runner := NewRunner()
	defer runner.Close()

	// Clean sequential baseline.
	want, err := runner.CollectGrid(context.Background(), Grid{Cells: cells, Workers: 1, KeepResults: true})
	if err != nil {
		t.Fatal(err)
	}

	dir := t.TempDir()
	store := NewDirLeaseStore(dir)

	// The victim: this test binary re-executed as a lone worker on the
	// shared session, slowed so the kill lands mid-cell.
	victim := exec.Command(os.Args[0], "-test.run=^TestChaosShardHelper$")
	victim.Env = append(os.Environ(), "MPIC_CHAOS_SHARD_DIR="+dir)
	if err := victim.Start(); err != nil {
		t.Fatal(err)
	}
	defer victim.Process.Kill()

	// Kill as soon as the first completed cell lands — abrupt, with
	// leases still held.
	deadline := time.Now().Add(60 * time.Second)
	for {
		saved, err := store.Load(shardSoakSpec)
		if err == nil && len(saved) > 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("victim worker saved nothing within 60s")
		}
		time.Sleep(10 * time.Millisecond)
	}
	if err := victim.Process.Kill(); err != nil {
		t.Fatal(err)
	}
	_ = victim.Wait()

	saved, err := store.Load(shardSoakSpec)
	if err != nil {
		t.Fatal(err)
	}
	if len(saved) == len(cells) {
		t.Fatal("victim finished the whole grid before the kill; the soak proved nothing")
	}
	orphaned, err := store.Leases(shardSoakSpec)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("killed victim after %d/%d cells, %d orphaned lease(s)", len(saved), len(cells), len(orphaned))

	// The survivors: two in-process workers under a panic fault plan —
	// the PR 6 retry machinery must keep absorbing failures on the
	// sharded path too. They must wait out the victim's leases (TTL 2s)
	// before reclaiming its cells.
	plan := faults.CellPlan{Seed: 99, PanicRate: 0.35, MaxPanics: 2}
	workerGrid := func() Grid {
		cc := make([]GridCell, len(cells))
		for i, c := range cells {
			sc := c.Scenario
			sc.Observers = append(append([]Observer(nil), sc.Observers...), plan.Observer(i))
			c.Scenario = sc
			cc[i] = c
		}
		return Grid{
			Cells: cc, Spec: shardSoakSpec, KeepResults: true,
			Retry: RetryPolicy{MaxAttempts: 3, JitterSeed: 7, Sleep: func(time.Duration) {}},
		}
	}
	var wg sync.WaitGroup
	errs := make([]error, 2)
	for w := range errs {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			errs[w] = runner.RunGridSharded(context.Background(), workerGrid(), store,
				ShardOptions{Worker: fmt.Sprintf("survivor-%d", w), LeaseTTL: 2 * time.Second, Poll: 50 * time.Millisecond}, nil)
		}(w)
	}
	wg.Wait()
	for w, err := range errs {
		if err != nil {
			t.Fatalf("survivor %d: %v", w, err)
		}
	}

	// Merge check: the ordinary engine restores the whole session, and
	// every cell — the victim's, the reclaimed, the survivors' — is
	// bit-identical to the clean sequential run.
	got, err := runner.CollectGrid(context.Background(), Grid{
		Cells: cells, Spec: shardSoakSpec, Store: store, KeepResults: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if !got[i].Restored {
			t.Errorf("cell %d missing from the merged session", i)
		}
		if !reflect.DeepEqual(got[i].Cell, want[i].Cell) {
			t.Errorf("cell %d diverged from clean sequential run:\n got %+v\nwant %+v", i, got[i].Cell, want[i].Cell)
		}
		if len(got[i].Results) != len(want[i].Results) {
			t.Fatalf("cell %d kept %d trials, want %d", i, len(got[i].Results), len(want[i].Results))
		}
		for j := range got[i].Results {
			if !reflect.DeepEqual(got[i].Results[j].Metrics, want[i].Results[j].Metrics) {
				t.Errorf("cell %d trial %d metrics diverged", i, j)
			}
		}
	}
	leases, err := store.Leases(shardSoakSpec)
	if err != nil {
		t.Fatal(err)
	}
	if len(leases) != 0 {
		t.Errorf("finished session still holds leases: %+v", leases)
	}
	t.Logf("sharded soak: %d cells, victim completed %d before SIGKILL, survivors finished the rest", len(cells), len(saved))
}
