package mpic_test

import (
	"bytes"
	"context"
	"errors"
	"testing"

	"mpic"
	"mpic/internal/gridspec"
)

// sameResult asserts two runs produced identical observable outcomes.
func sameResult(t *testing.T, a, b *mpic.Result) {
	t.Helper()
	if a.Success != b.Success || a.Iterations != b.Iterations || a.GStar != b.GStar ||
		a.Metrics.CC != b.Metrics.CC || a.WrongParties != b.WrongParties ||
		a.Metrics.TotalCorruptions() != b.Metrics.TotalCorruptions() {
		t.Fatalf("results differ:\n a={succ:%v it:%d g*:%d cc:%d wrong:%d corr:%d}\n b={succ:%v it:%d g*:%d cc:%d wrong:%d corr:%d}",
			a.Success, a.Iterations, a.GStar, a.Metrics.CC, a.WrongParties, a.Metrics.TotalCorruptions(),
			b.Success, b.Iterations, b.GStar, b.Metrics.CC, b.WrongParties, b.Metrics.TotalCorruptions())
	}
	if len(a.Outputs) != len(b.Outputs) {
		t.Fatalf("output count differs: %d vs %d", len(a.Outputs), len(b.Outputs))
	}
	for i := range a.Outputs {
		if !bytes.Equal(a.Outputs[i], b.Outputs[i]) {
			t.Fatalf("party %d output differs", i)
		}
	}
}

// collectCells runs a grid and returns its aggregates in definition
// order.
func collectCells(t *testing.T, runner *mpic.Runner, grid mpic.Grid) []mpic.SweepCell {
	t.Helper()
	results, err := runner.CollectGrid(context.Background(), grid)
	if err != nil {
		t.Fatal(err)
	}
	cells := make([]mpic.SweepCell, len(results))
	for i, r := range results {
		cells[i] = r.Cell
	}
	return cells
}

// TestSweepGrid pins the cartesian semantics of a string grid spec: cell
// order, per-cell identity fields, trial counts, and the
// noiseless-success invariant.
func TestSweepGrid(t *testing.T) {
	runner := mpic.NewRunner()
	defer runner.Close()
	grid, err := gridspec.Grid{
		Topology: "line", Workload: "random", Rounds: 40,
		Noise: "random", Seed: 3, IterFactor: 15,
		N: "4,5", Schemes: "A,1", Rates: "0,0.001",
		Trials: 2, SeedStep: 100,
	}.Build()
	if err != nil {
		t.Fatal(err)
	}
	cells := collectCells(t, runner, grid)
	if len(cells) != 8 {
		t.Fatalf("got %d cells, want 8", len(cells))
	}
	want := 0
	for _, n := range []int{4, 5} {
		for _, s := range []mpic.Scheme{mpic.AlgorithmA, mpic.Algorithm1} {
			for _, rate := range []float64{0, 0.001} {
				c := cells[want]
				want++
				if c.N != n || c.Scheme != s || c.Rate != rate {
					t.Fatalf("cell %d is (n=%d, %v, %g), want (n=%d, %v, %g)",
						want-1, c.N, c.Scheme, c.Rate, n, s, rate)
				}
				if c.Trials != 2 || len(c.Blowups) != 2 || len(c.Iterations) != 2 {
					t.Fatalf("cell %d has %d trials (%d blowups)", want-1, c.Trials, len(c.Blowups))
				}
				if rate == 0 && c.Successes != c.Trials {
					t.Errorf("noiseless cell %d not fully successful: %d/%d", want-1, c.Successes, c.Trials)
				}
				if rate == 0 && c.Corruptions != 0 {
					t.Errorf("noiseless cell %d recorded %d corruptions", want-1, c.Corruptions)
				}
				if c.MeanBlowup() <= 0 {
					t.Errorf("cell %d mean blowup %.2f", want-1, c.MeanBlowup())
				}
			}
		}
	}
}

// A registered noise family whose specs cannot re-rate: the rate is baked
// into the wiring closure.
func init() {
	if err := mpic.RegisterNoise("test-closure-rated", func(float64) mpic.NoiseSpec {
		return mpic.NoiseFunc("test-closure-rated", func(env mpic.NoiseEnv) (mpic.WiredNoise, error) {
			return mpic.WiredNoise{Adversary: mpic.NewFixedDeletions(0, 1, 0, 0)}, nil
		})
	}); err != nil {
		panic(err)
	}
}

// TestSweepValidation pins the grid error paths: party counts below one
// and a rate axis over a registered noise family whose rate is baked into
// a closure (it must error loudly instead of running mislabeled cells).
func TestSweepValidation(t *testing.T) {
	for name, g := range map[string]gridspec.Grid{
		"n=0":            {N: "0", Workload: "random"},
		"n=-3":           {N: "4,-3", Workload: "random"},
		"unratable rate": {N: "4", Noise: "test-closure-rated", Rates: "0.001,0.01"},
	} {
		if _, err := g.Build(); err == nil {
			t.Errorf("%s accepted", name)
		}
	}
	// A single cell at the closure's own rate is fine.
	if _, err := (gridspec.Grid{N: "4", Noise: "test-closure-rated"}).Build(); err != nil {
		t.Errorf("rate-less grid over a closure-rated noise rejected: %v", err)
	}
}

// TestSweepProtocolWorkloadN pins SweepCell.N for scenarios whose
// topology is implicit in a pre-built protocol: the engine derives the
// key from the protocol's own graph.
func TestSweepProtocolWorkloadN(t *testing.T) {
	g, err := mpic.NewTopology("ring", 5)
	if err != nil {
		t.Fatal(err)
	}
	proto, err := mpic.NewWorkload("token-ring", g, 25, 1)
	if err != nil {
		t.Fatal(err)
	}
	cells := collectCells(t, mpic.NewRunner(), mpic.Grid{Cells: []mpic.GridCell{{
		Scenario: mpic.Scenario{Workload: mpic.UseProtocol(proto), Seed: 1, IterFactor: 15},
	}}})
	if len(cells) != 1 || cells[0].N != 5 {
		t.Fatalf("UseProtocol cell reports N=%d, want 5", cells[0].N)
	}
}

// TestBurstSpecDefaultsMatchLegacy pins the satellite fix: BurstNoise
// with no Link/Start/Length reproduces the legacy hard-coded behavior
// (random edge, window [0, 1<<30)) that the "burst" name resolves to,
// while the new fields take effect when set.
func TestBurstSpecDefaultsMatchLegacy(t *testing.T) {
	named, err := gridspec.Scenario{Topology: "line", N: 5, Noise: "burst", Rate: 0.003, Seed: 9, IterFactor: 20}.Build()
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := named.Noise.(mpic.BurstSpec); !ok {
		t.Fatalf("named burst parsed to %T, want mpic.BurstSpec", named.Noise)
	}
	legacy, err := mpic.RunScenario(context.Background(), named)
	if err != nil {
		t.Fatal(err)
	}
	sc := mpic.Scenario{Topology: mpic.Line(5), Noise: mpic.BurstNoise(0.003), Seed: 9, IterFactor: 20}
	typed, err := mpic.RunScenario(context.Background(), sc)
	if err != nil {
		t.Fatal(err)
	}
	sameResult(t, legacy, typed)

	// Explicit window fields: a window starting after the run ends must
	// land no corruptions — proving Start/Length actually confine the
	// attack (the legacy spec always covered the whole run).
	sc.Noise = mpic.BurstSpec{Rate: 0.003, Link: &mpic.Link{From: 0, To: 1}, Start: 1 << 28, Length: 10}
	quiet, err := mpic.RunScenario(context.Background(), sc)
	if err != nil {
		t.Fatal(err)
	}
	if quiet.Metrics.TotalCorruptions() != 0 {
		t.Errorf("out-of-run burst window landed %d corruptions", quiet.Metrics.TotalCorruptions())
	}
	// A burst on a link outside the topology is a loud error, not a
	// silent no-op.
	sc.Noise = mpic.BurstSpec{Rate: 0.003, Link: &mpic.Link{From: 0, To: 4}}
	if _, err := mpic.RunScenario(context.Background(), sc); err == nil {
		t.Error("burst on a non-edge accepted")
	}
}

// TestRunnerReuseBitIdentical pins the arena: running the same scenario
// repeatedly through one Runner (buffer reuse) must match a fresh
// one-shot run exactly.
func TestRunnerReuseBitIdentical(t *testing.T) {
	sc := mpic.Scenario{
		Topology: mpic.Clique(4),
		Workload: mpic.RandomTraffic(60),
		Scheme:   mpic.AlgorithmA,
		Noise:    mpic.RandomNoise(0.002),
		Seed:     21, IterFactor: 20,
	}
	oneShot, err := mpic.RunScenario(context.Background(), sc)
	if err != nil {
		t.Fatal(err)
	}
	runner := mpic.NewRunner()
	defer runner.Close()
	for i := 0; i < 3; i++ {
		reused, err := runner.Run(context.Background(), sc)
		if err != nil {
			t.Fatal(err)
		}
		sameResult(t, oneShot, reused)
	}
}

// TestRunnerReuseAcrossShapes runs scenarios of different sizes, schemes
// and noise models in turn through one Runner, so each run rebuilds its
// chunking in the buffers of a larger or a smaller run's and draws its
// generators from the pool after the others; every run must match a
// fresh one-shot run exactly.
func TestRunnerReuseAcrossShapes(t *testing.T) {
	scenarios := []mpic.Scenario{
		{Topology: mpic.Clique(4), Workload: mpic.RandomTraffic(60), Scheme: mpic.AlgorithmA,
			Noise: mpic.RandomNoise(0.002), Seed: 21, IterFactor: 20},
		{Topology: mpic.RandomTopology(12), Workload: mpic.RandomTraffic(150), Scheme: mpic.AlgorithmB,
			Noise: mpic.RandomNoise(0.0005), Seed: 4, IterFactor: 12},
		{Topology: mpic.Line(3), Workload: mpic.RandomTraffic(20), Scheme: mpic.Algorithm1,
			Noise: mpic.BurstNoise(0.003), Seed: 9, IterFactor: 20},
	}
	oneShot := make([]*mpic.Result, len(scenarios))
	for i, sc := range scenarios {
		res, err := mpic.RunScenario(context.Background(), sc)
		if err != nil {
			t.Fatal(err)
		}
		oneShot[i] = res
	}
	runner := mpic.NewRunner()
	defer runner.Close()
	for pass := 0; pass < 2; pass++ {
		for i, sc := range scenarios {
			res, err := runner.Run(context.Background(), sc)
			if err != nil {
				t.Fatal(err)
			}
			sameResult(t, oneShot[i], res)
		}
	}
}

// TestObserverLifecycle pins the Observer contract: RunStarted once,
// IterationDone exactly once per executed iteration with monotone
// communication, RunDone once with the final result.
func TestObserverLifecycle(t *testing.T) {
	ob := &recordingObserver{}
	res, err := mpic.RunScenario(context.Background(), mpic.Scenario{
		Topology:   mpic.Line(4),
		Workload:   mpic.RandomTraffic(40),
		Noise:      mpic.RandomNoise(0.002),
		Seed:       5,
		IterFactor: 15,
		Observers:  []mpic.Observer{ob},
	})
	if err != nil {
		t.Fatal(err)
	}
	if ob.started != 1 {
		t.Errorf("RunStarted fired %d times, want 1", ob.started)
	}
	if ob.done != 1 || ob.final != res {
		t.Errorf("RunDone fired %d times (final==res: %v), want once with the result", ob.done, ob.final == res)
	}
	if len(ob.iters) != res.Iterations {
		t.Fatalf("observed %d iterations, result says %d", len(ob.iters), res.Iterations)
	}
	prevCC := int64(-1)
	for i, st := range ob.iters {
		if st.iteration != i {
			t.Fatalf("iteration %d reported as %d", i, st.iteration)
		}
		if st.cc < prevCC {
			t.Fatalf("communication went backwards at iteration %d: %d < %d", i, st.cc, prevCC)
		}
		prevCC = st.cc
		if !st.hadSnapshot {
			t.Fatalf("iteration %d missing oracle snapshot", i)
		}
	}
	if ob.links == 0 {
		t.Error("RunStarted info had no links")
	}
}

type iterRecord struct {
	iteration   int
	cc          int64
	hadSnapshot bool
}

type recordingObserver struct {
	started int
	links   int
	iters   []iterRecord
	done    int
	final   *mpic.Result
}

func (r *recordingObserver) RunStarted(info mpic.RunInfo) {
	r.started++
	r.links = len(info.Links)
}

func (r *recordingObserver) IterationDone(st mpic.IterationStats) {
	r.iters = append(r.iters, iterRecord{
		iteration:   st.Iteration,
		cc:          st.Metrics.CC,
		hadSnapshot: st.Snapshot != nil,
	})
}

func (r *recordingObserver) RunDone(res *mpic.Result) {
	r.done++
	r.final = res
}

// TestRunnerCancellation pins context semantics: an observer cancels the
// context after the first iteration, and the run returns ctx.Err()
// without a result.
func TestRunnerCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	fired := 0
	res, err := mpic.NewRunner().Run(ctx, mpic.Scenario{
		Topology: mpic.Line(4),
		Workload: mpic.RandomTraffic(60),
		Seed:     3,
		Faithful: true, IterFactor: 50,
		Observers: []mpic.Observer{mpic.ObserverFunc(func(st mpic.IterationStats) {
			fired++
			cancel()
		})},
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("got (%v, %v), want context.Canceled", res, err)
	}
	if res != nil {
		t.Error("cancelled run returned a result")
	}
	if fired != 1 {
		t.Errorf("run continued for %d iterations after cancellation", fired)
	}
	// A pre-cancelled context never starts.
	dead, deadCancel := context.WithCancel(context.Background())
	deadCancel()
	if _, err := mpic.NewRunner().Run(dead, mpic.Scenario{Topology: mpic.Line(3), Seed: 1}); !errors.Is(err, context.Canceled) {
		t.Fatalf("pre-cancelled context: got %v", err)
	}
}
