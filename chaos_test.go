package mpic

import (
	"bytes"
	"context"
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"mpic/internal/faults"
)

// TestChaosGridSoak is the capstone fault-tolerance pin (`make chaos`
// runs it under -race): the full registry-cartesian grid executes as a
// durable parallel session while everything that can go wrong does, on a
// deterministic seed-driven schedule —
//
//   - the session store injects Save/Load errors, each of which aborts
//     the run it hits, and the session is resumed from its journal until
//     a run finishes — the way the CLIs and the service recover,
//   - the store also tears the journal inside its final record after
//     "successful" writes (absorbed by FileGridStore's torn-tail
//     recovery, which cuts the record off and lets the engine append it
//     again),
//   - a fault plan makes a fraction of the cells panic mid-run on their
//     leading attempts (absorbed by the engine's panic recovery and
//     Grid.Retries),
//   - once a third of the cells have completed, the run in flight is
//     cancelled and the journal torn behind its back (absorbed by
//     torn-tail recovery on resume, which re-runs the lost cell).
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

	// The faulty session store: FileGridStore under deterministic fault
	// injection. Torn writes truncate the journal inside its final record
	// — the exact shape a crash during an append leaves.
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
	// every run gets a fresh grid with fresh agents.
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
			Store: faulty, Spec: "chaos-soak",
			Retries: 2,
		}
	}

	// Cancel a third of the way through, then tear the journal behind the
	// session's back — a crash mid-append. Resume must cut off the torn
	// record and re-run its cell, not abort and not silently restart from
	// zero.
	soak := resumeUntilDone(t, runner, makeGrid, len(cells)/3, func() {
		if err := tearFinalRecord(path); err != nil {
			t.Fatal(err)
		}
	})
	got := soak.got
	if len(recoveries) == 0 {
		t.Error("torn journal did not trigger torn-tail recovery")
	}
	for i := range want {
		if got[i].Err != nil {
			t.Fatalf("%s: cell failed despite retry budget: %v", labels[i], got[i].Err)
		}
		if !reflect.DeepEqual(got[i].Cell, want[i].Cell) {
			t.Errorf("%s: chaos run diverged from clean sequential run:\n got %+v\nwant %+v",
				labels[i], got[i].Cell, want[i].Cell)
		}
	}
	if soak.restored == 0 {
		t.Error("resume restored nothing; the session store never held good state")
	}
	if soak.restored == len(want) {
		t.Error("resume restored everything; the corruption wound back no cells")
	}

	// The schedule must actually have injected faults in every stream —
	// otherwise the soak silently stopped soaking.
	st := faulty.Stats()
	if st.SaveErrors == 0 || st.Tears == 0 {
		t.Errorf("store fault schedule injected nothing: %+v", st)
	}
	t.Logf("chaos soak: %d cells (%d afflicted by panics) in %d runs, %d restored on resume, %d store recoveries, store stats %+v",
		len(cells), afflicted, soak.runs, soak.restored, len(recoveries), st)
}

// soakRuns is what resumeUntilDone reports about a soak.
type soakRuns struct {
	// got holds the finished run's cells, by index.
	got []GridCellResult
	// runs counts the runs, the finished one included.
	runs int
	// restored counts the cells restored by the first run after the
	// cancellation that got past Load. Later runs are no measure of the
	// cancellation: the interrupted-exit flush can persist a cell whose
	// own Save failed, so a last run may restore every cell.
	restored int
}

// resumeUntilDone runs a durable session again and again, each run
// resuming from the journal the one before left, until a run finishes;
// it gives up after 200 runs. An injected store fault aborts the run it
// hits, as a store error does for the CLIs and the service, and any other
// error fails the test. Once cancelAfter cells have completed across
// runs, it cancels the run in flight and calls tear, when non-nil, before
// the next run.
func resumeUntilDone(t *testing.T, runner *Runner, makeGrid func() Grid, cancelAfter int, tear func()) soakRuns {
	t.Helper()
	out := soakRuns{restored: -1}
	fresh, cancelled := 0, false
	for out.runs < 200 {
		out.runs++
		g := makeGrid()
		got := make([]GridCellResult, len(g.Cells))
		restored, afterCancel := 0, cancelled
		ctx, cancel := context.WithCancel(context.Background())
		err := runner.RunGrid(ctx, g, func(res GridCellResult) {
			got[res.Index] = res
			if res.Restored {
				restored++
				return
			}
			if fresh++; fresh == cancelAfter {
				cancelled = true
				cancel()
			}
		})
		cancel()
		var injected *faults.InjectedError
		isInjected := errors.As(err, &injected)
		if afterCancel && out.restored < 0 && !(isInjected && injected.Op == "load") {
			out.restored = restored
		}
		switch {
		case err == nil && afterCancel:
			out.got = got
			return out
		case err == nil:
			t.Fatalf("the session finished in run %d before the cancellation", out.runs)
		case isInjected:
		case errors.Is(err, context.Canceled) && cancelled && !afterCancel:
		default:
			t.Fatalf("run %d: %v", out.runs, err)
		}
		if cancelled && !afterCancel && tear != nil {
			tear()
		}
	}
	t.Fatalf("the session did not finish in %d runs", out.runs)
	return out
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
// against a store that injects Save/Load errors, is cancelled mid-flight,
// and is resumed from its journal until a run finishes.
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
	makeGrid := func() Grid {
		return Grid{
			Cells: cells, Workers: 4, KeepResults: true,
			Store: faulty, Spec: "net-chaos-soak",
		}
	}

	// Cancel a third of the way through, resume to completion and compare
	// bit for bit.
	soak := resumeUntilDone(t, runner, makeGrid, len(cells)/3, nil)
	got := soak.got
	var late, erasures int64
	for i := range want {
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
	if soak.restored == 0 {
		t.Error("resume restored nothing; the session never held good state")
	}
	if late == 0 || erasures == 0 {
		t.Errorf("the fault schedule never bit: %d late symbols, %d erasures — the soak stopped soaking", late, erasures)
	}
	if st := faulty.Stats(); st.SaveErrors == 0 && st.LoadErrors == 0 {
		t.Errorf("store fault schedule injected nothing: %+v", st)
	}
	t.Logf("network chaos soak: %d cells in %d runs, %d restored on resume, %d late symbols, %d erasures",
		len(cells), soak.runs, soak.restored, late, erasures)
}

// killSoakCells is the deterministic work-list the kill soak shares
// between the parent test and its victim subprocess: DES delay models
// with a fault schedule, two seeds per shape, expensive enough that a
// SIGKILL lands mid-grid.
func killSoakCells() []GridCell {
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

// killSoakSpec names the shared session; an explicit spec keeps the
// parent and the subprocess honest about running the same grid.
const killSoakSpec = "chaos-kill-soak"

// iterationSleeper slows a run down without touching its results —
// observers only watch — so the victim subprocess is guaranteed to be
// mid-cell when the parent kills it.
type iterationSleeper struct{ d time.Duration }

func (s iterationSleeper) IterationDone(IterationStats) { time.Sleep(s.d) }

// TestChaosKillVictimHelper is not a test of its own: it is the victim
// process of TestChaosKilledSessionResume, re-executed from the test
// binary with the session journal's path in the environment. It runs
// the grid — deliberately slowed — as a durable two-worker session until
// the parent SIGKILLs it, leaving a half-finished journal behind.
// Without the environment variable it skips immediately.
func TestChaosKillVictimHelper(t *testing.T) {
	path := os.Getenv("MPIC_CHAOS_KILL_JOURNAL")
	if path == "" {
		t.Skip("helper process for TestChaosKilledSessionResume")
	}
	cells := killSoakCells()
	for i := range cells {
		sc := cells[i].Scenario
		sc.Observers = append(append([]Observer(nil), sc.Observers...), iterationSleeper{2 * time.Millisecond})
		cells[i].Scenario = sc
	}
	runner := NewRunner()
	defer runner.Close()
	grid := Grid{Cells: cells, Spec: killSoakSpec, KeepResults: true, Workers: 2, Store: NewFileGridStore(path)}
	if err := runner.RunGrid(context.Background(), grid, nil); err != nil {
		t.Fatal(err)
	}
}

// TestChaosKilledSessionResume is the crash-resume capstone pin (`make
// chaos` runs it under -race): a real second OS process runs a durable
// session and is SIGKILLed mid-cell after its first saved cell — no
// flush, no cleanup, exactly what a crashed service leaves behind —
// after which this process resumes the session from the journal under
// a panic fault plan and finishes it. Every cell, per-trial metrics
// included, must be bit-identical to a clean sequential run, both as
// the resume streams it and as the finished journal restores it.
func TestChaosKilledSessionResume(t *testing.T) {
	cells := killSoakCells()
	runner := NewRunner()
	defer runner.Close()

	// Clean sequential baseline.
	want, err := runner.CollectGrid(context.Background(), Grid{Cells: cells, Workers: 1, KeepResults: true})
	if err != nil {
		t.Fatal(err)
	}

	path := filepath.Join(t.TempDir(), "journal")
	store := NewFileGridStore(path)

	// The victim: this test binary re-executed on the session journal,
	// slowed so the kill lands mid-cell.
	victim := exec.Command(os.Args[0], "-test.run=^TestChaosKillVictimHelper$")
	victim.Env = append(os.Environ(), "MPIC_CHAOS_KILL_JOURNAL="+path)
	if err := victim.Start(); err != nil {
		t.Fatal(err)
	}
	defer victim.Process.Kill()

	// Kill as soon as the first completed cell lands — abrupt, with the
	// other worker mid-cell.
	deadline := time.Now().Add(60 * time.Second)
	for {
		saved, err := store.Load(killSoakSpec)
		if err == nil && len(saved) > 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("victim saved nothing within 60s")
		}
		time.Sleep(10 * time.Millisecond)
	}
	if err := victim.Process.Kill(); err != nil {
		t.Fatal(err)
	}
	_ = victim.Wait()

	saved, err := store.Load(killSoakSpec)
	if err != nil {
		t.Fatal(err)
	}
	if len(saved) == len(cells) {
		t.Fatal("victim finished the whole grid before the kill; the soak proved nothing")
	}

	// The resume runs under a panic fault plan — the retry machinery must
	// keep absorbing failures on a resumed session too.
	plan := faults.CellPlan{Seed: 99, PanicRate: 0.35, MaxPanics: 2}
	resumed := make([]GridCell, len(cells))
	for i, c := range cells {
		sc := c.Scenario
		sc.Observers = append(append([]Observer(nil), sc.Observers...), plan.Observer(i))
		c.Scenario = sc
		resumed[i] = c
	}
	got, err := runner.CollectGrid(context.Background(), Grid{
		Cells: resumed, Spec: killSoakSpec, Store: store, KeepResults: true, Workers: 2,
		Retries: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	// The finished journal restores every cell.
	restored, err := runner.CollectGrid(context.Background(), Grid{
		Cells: cells, Spec: killSoakSpec, Store: NewFileGridStore(path), KeepResults: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, run := range []struct {
		name string
		got  []GridCellResult
	}{{"resumed", got}, {"restored", restored}} {
		for i := range want {
			g := run.got[i]
			if run.name == "restored" && !g.Restored {
				t.Errorf("cell %d missing from the finished journal", i)
			}
			if !reflect.DeepEqual(g.Cell, want[i].Cell) {
				t.Errorf("%s cell %d diverged from clean sequential run:\n got %+v\nwant %+v", run.name, i, g.Cell, want[i].Cell)
			}
			if len(g.Results) != len(want[i].Results) {
				t.Fatalf("%s cell %d kept %d trials, want %d", run.name, i, len(g.Results), len(want[i].Results))
			}
			for j := range g.Results {
				if !reflect.DeepEqual(g.Results[j].Metrics, want[i].Results[j].Metrics) {
					t.Errorf("%s cell %d trial %d metrics diverged", run.name, i, j)
				}
			}
		}
	}
	t.Logf("kill soak: %d cells, victim completed %d before SIGKILL, the resume finished the rest", len(cells), len(saved))
}
