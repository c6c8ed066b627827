package mpic_test

import (
	"context"
	"errors"
	"reflect"
	"strings"
	"testing"

	"mpic"
)

// TestLockstepDelayPinned is the compatibility pin of the virtual-time
// core: an explicit lockstep delay model is bit-identical to no delay
// model at all — both run the classic synchronous engine and neither
// grows NetStats.
func TestLockstepDelayPinned(t *testing.T) {
	run := func(d mpic.DelaySpec) *mpic.Result {
		runner := mpic.NewRunner()
		defer runner.Close()
		sc := gridBase()
		sc.Noise = mpic.RandomNoise(0.002)
		sc.Delay = d
		res, err := runner.Run(context.Background(), sc)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	plain := run(nil)
	lock := run(mpic.LockstepDelay())
	if plain.Metrics.Net != nil || lock.Metrics.Net != nil {
		t.Fatal("lockstep runs must not grow NetStats")
	}
	a, b := *plain, *lock
	a.Arena, b.Arena = nil, nil
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("explicit lockstep delay diverged from no delay:\n%+v\n%+v", a, b)
	}
}

// timedGrid is the delay-axis grid the determinism tests run: three
// delay models (including explicit lockstep) with spikes and a straggler
// layered on every cell.
func timedGrid() mpic.Grid {
	base := gridBase()
	base.Noise = mpic.RandomNoise(0.002)
	base.Faults = &mpic.NetFaults{SpikeRate: 0.05, Stragglers: 1}
	return sweep{
		Base:     base,
		N:        []int{4, 5},
		Delays:   []mpic.DelaySpec{mpic.LockstepDelay(), mpic.JitterDelay(0.8), mpic.LognormalDelay(0.3)},
		Trials:   2,
		SeedStep: 100,
	}.grid()
}

// TestTimedGridDeterminism extends the engine's determinism pin to the
// virtual-time path: a grid with a delay axis and a network-fault
// schedule produces bit-identical cells at Workers=1 and Workers=4,
// including under delay spikes.
func TestTimedGridDeterminism(t *testing.T) {
	runner := mpic.NewRunner()
	defer runner.Close()
	grid := timedGrid()

	grid.Workers = 1
	seq := collectCells(t, runner, grid)
	grid.Workers = 4
	par := collectCells(t, runner, grid)
	if len(seq) != 6 || len(par) != len(seq) {
		t.Fatalf("got %d sequential and %d parallel cells, want 6", len(seq), len(par))
	}
	delaysSeen := map[string]bool{}
	for i := range seq {
		if !reflect.DeepEqual(seq[i], par[i]) {
			t.Errorf("cell %d differs:\nsequential: %+v\nparallel:   %+v", i, seq[i], par[i])
		}
		delaysSeen[seq[i].Delay] = true
	}
	for _, name := range []string{"unit", "jitter", "lognormal"} {
		if !delaysSeen[name] {
			t.Errorf("no cell carries delay axis value %q (saw %v)", name, delaysSeen)
		}
	}
}

// TestTimedGridKeepResults pins per-trial determinism on the timed path:
// with KeepResults, every trial's full Result — virtual-time NetStats
// included — is bit-identical across worker counts, and the non-lockstep
// cells actually carry network metrics.
func TestTimedGridKeepResults(t *testing.T) {
	collect := func(workers int) []mpic.GridCellResult {
		runner := mpic.NewRunner()
		defer runner.Close()
		grid := timedGrid()
		grid.Workers = workers
		grid.KeepResults = true
		results, err := runner.CollectGrid(context.Background(), grid)
		if err != nil {
			t.Fatal(err)
		}
		return results
	}
	seq, par := collect(1), collect(4)
	if len(seq) != len(par) {
		t.Fatalf("cell counts differ: %d vs %d", len(seq), len(par))
	}
	sawNet := false
	for i := range seq {
		a, b := seq[i], par[i]
		if a.Key != b.Key {
			t.Fatalf("cell %d keys differ: %+v vs %+v", i, a.Key, b.Key)
		}
		if !reflect.DeepEqual(a.Cell, b.Cell) {
			t.Errorf("cell %d aggregates differ", i)
		}
		if len(a.Results) != len(b.Results) || len(a.Results) == 0 {
			t.Fatalf("cell %d kept %d vs %d trial results", i, len(a.Results), len(b.Results))
		}
		for j := range a.Results {
			ra, rb := a.Results[j], b.Results[j]
			if !reflect.DeepEqual(ra.Metrics, rb.Metrics) {
				t.Errorf("cell %d trial %d metrics differ:\n%+v\n%+v", i, j, ra.Metrics, rb.Metrics)
			}
			if ra.Success != rb.Success || ra.Iterations != rb.Iterations || ra.Blowup != rb.Blowup {
				t.Errorf("cell %d trial %d outcome differs", i, j)
			}
			if a.Key.Delay != "unit" && a.Key.Delay != "" {
				if ra.Metrics.Net == nil {
					t.Errorf("cell %d (delay %q) trial %d has no NetStats", i, a.Key.Delay, j)
				} else {
					sawNet = true
					if ra.Metrics.Net.Makespan <= 0 {
						t.Errorf("cell %d trial %d makespan = %g", i, j, ra.Metrics.Net.Makespan)
					}
				}
			}
		}
	}
	if !sawNet {
		t.Fatal("no timed cell recorded NetStats")
	}
}

// TestTimedRunSurvivesFaults: a single run under a heavy fault schedule —
// outages, stragglers, and a crash-restart — completes and reports the
// faults as insdel noise plus virtual-time metrics.
func TestTimedRunSurvivesFaults(t *testing.T) {
	runner := mpic.NewRunner()
	defer runner.Close()
	sc := gridBase()
	sc.Delay = mpic.JitterDelay(0.5)
	sc.Faults = &mpic.NetFaults{OutageRate: 0.01, Stragglers: 1, Crashes: 1, CrashLen: 15}
	res, err := runner.Run(context.Background(), sc)
	if err != nil {
		t.Fatal(err)
	}
	n := res.Metrics.Net
	if n == nil {
		t.Fatal("faulty timed run has no NetStats")
	}
	if n.Erasures == 0 {
		t.Error("crash + outages recorded no erasures")
	}
	if n.Makespan <= 0 || n.MaxP99() <= 0 {
		t.Errorf("degenerate virtual-time metrics: makespan=%g p99=%g", n.Makespan, n.MaxP99())
	}
	if len(n.Links) == 0 {
		t.Error("no per-link delay histograms")
	}
}

// TestParseDelayAndFaults covers the CLI string forms.
func TestParseDelayAndFaults(t *testing.T) {
	for _, s := range []string{"", "none"} {
		d, err := mpic.ParseDelay(s)
		if err != nil || d != nil {
			t.Errorf("ParseDelay(%q) = %v, %v; want nil, nil", s, d, err)
		}
		f, err := mpic.ParseNetFaults(s)
		if err != nil || f != nil {
			t.Errorf("ParseNetFaults(%q) = %v, %v; want nil, nil", s, f, err)
		}
	}
	d, err := mpic.ParseDelay("lognormal:0.3")
	if err != nil || d == nil || d.DelayName() != "lognormal" {
		t.Fatalf("ParseDelay(lognormal:0.3) = %v, %v", d, err)
	}
	if _, err := mpic.ParseDelay("lognormal:bogus"); err == nil {
		t.Error("malformed delay param accepted")
	}
	if _, err := mpic.ParseDelay("no-such-model"); err == nil {
		t.Error("unknown delay model accepted")
	}
	// NaN delays were never late and wedged the event heap; infinite
	// ones made every symbol late. Both are typed errors up front.
	for _, bad := range []string{"lognormal:NaN", "jitter:Inf", "jitter:-Inf", "bands:+Inf", "unit:NaN"} {
		var nf *mpic.NonFiniteError
		if _, err := mpic.ParseDelay(bad); !errors.As(err, &nf) {
			t.Errorf("ParseDelay(%q) error = %v, want *NonFiniteError", bad, err)
		}
	}
	// Finite but huge parameters filed their delays in histogram bucket
	// 0 and overflowed its sums; they are typed errors too.
	for _, bad := range []string{"jitter:1e308", "jitter:2e9", "lognormal:1e300"} {
		var re *mpic.DelayRangeError
		if _, err := mpic.ParseDelay(bad); !errors.As(err, &re) {
			t.Errorf("ParseDelay(%q) error = %v, want *DelayRangeError", bad, err)
		}
	}
	for _, spec := range []mpic.DelaySpec{mpic.JitterDelaySpec{Base: 1e308}, mpic.LognormalDelaySpec{Median: 2e9}} {
		var re *mpic.DelayRangeError
		if _, err := spec.Wire(mpic.DelayEnv{}); !errors.As(err, &re) {
			t.Errorf("%+v.Wire error = %v, want *DelayRangeError", spec, err)
		}
	}

	f, err := mpic.ParseNetFaults("outage=0.01,outage-len=4,spike=0.1,spike-delay=1.5,stragglers=2,straggler-delay=0.7,crashes=1,crash-len=20,seed=9")
	if err != nil {
		t.Fatal(err)
	}
	want := mpic.NetFaults{
		Seed: 9, OutageRate: 0.01, OutageLen: 4, SpikeRate: 0.1, SpikeDelay: 1.5,
		Stragglers: 2, StragglerDelay: 0.7, Crashes: 1, CrashLen: 20,
	}
	if *f != want {
		t.Fatalf("ParseNetFaults = %+v, want %+v", *f, want)
	}
	for _, bad := range []string{"outage", "outage=x", "nope=1", "outage=2"} {
		if _, err := mpic.ParseNetFaults(bad); err == nil {
			t.Errorf("ParseNetFaults(%q) accepted", bad)
		}
	}
	// spike=NaN used to pass the range checks and silently turn spikes
	// off; spike-delay=NaN made spiked symbols late forever.
	for _, bad := range []string{"spike=NaN", "spike=0.01,spike-delay=NaN", "outage=Inf", "straggler-delay=-Inf", "stragglers=1,straggler-delay=+Inf"} {
		var nf *mpic.NonFiniteError
		if _, err := mpic.ParseNetFaults(bad); !errors.As(err, &nf) {
			t.Errorf("ParseNetFaults(%q) error = %v, want *NonFiniteError", bad, err)
		}
	}
	for _, bad := range []string{"spike=0.01,spike-delay=1e308", "stragglers=1,straggler-delay=1e10"} {
		var re *mpic.DelayRangeError
		if _, err := mpic.ParseNetFaults(bad); !errors.As(err, &re) {
			t.Errorf("ParseNetFaults(%q) error = %v, want *DelayRangeError", bad, err)
		}
	}
}

// TestDelayRegistry: the fourth open registry behaves like the other
// three — seeded names present, sorted, external registration usable.
func TestDelayRegistry(t *testing.T) {
	names := mpic.DelayNames()
	for _, want := range []string{"unit", "lockstep", "jitter", "lognormal", "bands"} {
		found := false
		for _, n := range names {
			if n == want {
				found = true
			}
		}
		if !found {
			t.Errorf("seed delay %q missing from registry (have %v)", want, names)
		}
	}
	if !sortedStrings(names) {
		t.Errorf("DelayNames not sorted: %v", names)
	}
	mpic.RegisterDelay("test-slowstep", func(param float64) mpic.DelaySpec {
		return mpic.JitterDelay(param)
	})
	d, err := mpic.Delay("test-slowstep", 0.25)
	if err != nil || d == nil {
		t.Fatalf("externally registered delay unusable: %v", err)
	}
}

func sortedStrings(s []string) bool {
	for i := 1; i < len(s); i++ {
		if strings.Compare(s[i-1], s[i]) > 0 {
			return false
		}
	}
	return true
}
