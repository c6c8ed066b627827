package gridspec

import (
	"reflect"
	"strings"
	"testing"

	"mpic"
)

func TestScenarioBuild(t *testing.T) {
	sc, err := Scenario{
		N: 4, Workload: "random", Scheme: "A",
		Noise: "random", Rate: 0.002, Seed: 7, IterFactor: 20,
		Delay: "lognormal:0.3", NetFaults: "outage=0.01,stragglers=1",
	}.Build()
	if err != nil {
		t.Fatal(err)
	}
	if sc.Topology.N != 4 || sc.Scheme != mpic.AlgorithmA || sc.Noise == nil {
		t.Fatalf("scenario not resolved: %+v", sc)
	}
	if sc.Delay == nil || sc.Faults == nil {
		t.Fatalf("network timing fields not resolved: delay=%v faults=%+v", sc.Delay, sc.Faults)
	}
	if sc.Seed != 7 {
		t.Fatalf("seed = %d, want 7", sc.Seed)
	}
}

func TestScenarioBuildErrors(t *testing.T) {
	for name, s := range map[string]Scenario{
		"bad scheme":    {N: 4, Scheme: "Z"},
		"bad noise":     {N: 4, Noise: "no-such-noise"},
		"bad delay":     {N: 4, Delay: "no-such-delay"},
		"bad netfaults": {N: 4, NetFaults: "outage=not-a-number"},
		"bad workload":  {N: 4, Workload: "no-such-workload"},
		"n=-3":          {N: -3},
		"retired mode":  {N: 4, HashMode: "incremental"},
	} {
		if _, err := s.Build(); err == nil {
			t.Errorf("%s accepted", name)
		}
	}
}

// TestGridSpecFingerprint pins the checkpoint fingerprint byte for byte
// against the historical mpicbench format: an old sweep checkpoint must
// still match the spec this package computes for the same flags.
func TestGridSpecFingerprint(t *testing.T) {
	g := Grid{
		Workload: "random", Noise: "random",
		N: "4,6", Schemes: "A,B", Rates: "0,0.002",
		Trials: 2, Seed: 1, IterFactor: 10,
	}
	want := "topology= workload=random rounds=0 noise=random n=4,6 schemes=A,B rates=0,0.002 trials=2 seed=1 iterfactor=10"
	if got := g.Spec(); got != want {
		t.Fatalf("spec = %q, want %q", got, want)
	}
	g.Delay = "jitter:0.5"
	if got := g.Spec(); got != want+" delay=jitter:0.5 netfaults=" {
		t.Fatalf("spec with delay = %q", got)
	}
	// The default stride stays out of the fingerprint (back-compat with
	// checkpoints written before the field existed); only an override
	// joins it.
	g.Delay = ""
	g.SeedStep = 7907
	if got := g.Spec(); got != want {
		t.Fatalf("default seedstep changed the spec: %q", got)
	}
	g.SeedStep = 100
	if got := g.Spec(); got != want+" seedstep=100" {
		t.Fatalf("spec with seedstep = %q", got)
	}
}

// TestGridSweepAxes pins the cartesian expansion: n → scheme → rate →
// delay nesting, the keys, the re-rated noise, and the default stride.
func TestGridSweepAxes(t *testing.T) {
	grid, err := Grid{
		Workload: "random", Noise: "random",
		N: "4,6", Schemes: "A,B", Rates: "0,0.002",
		Delay: "unit,jitter:0.5", Trials: 3, Seed: 1, IterFactor: 10,
	}.Build()
	if err != nil {
		t.Fatal(err)
	}
	if len(grid.Cells) != 16 {
		t.Fatalf("grid has %d cells, want 2·2·2·2", len(grid.Cells))
	}
	i := 0
	for _, n := range []int{4, 6} {
		for _, scheme := range []mpic.Scheme{mpic.AlgorithmA, mpic.AlgorithmB} {
			for _, rate := range []float64{0, 0.002} {
				for _, delay := range []string{"unit", "jitter"} {
					c := grid.Cells[i]
					want := mpic.GridKey{N: n, Scheme: scheme, Rate: rate, Delay: delay}
					if c.Key != want {
						t.Fatalf("cell %d key = %+v, want %+v", i, c.Key, want)
					}
					if c.Scenario.Topology.N != n || c.Scenario.Scheme != scheme ||
						c.Scenario.Noise != mpic.RandomNoise(rate) || c.Scenario.Delay.DelayName() != delay {
						t.Fatalf("cell %d scenario does not match its key %+v", i, want)
					}
					if c.Trials != 3 || c.SeedStep != 7907 {
						t.Fatalf("cell %d trials/stride = %d/%d, want 3/7907", i, c.Trials, c.SeedStep)
					}
					i++
				}
			}
		}
	}
	// Rates only apply when there is a noise model to take them.
	grid, err = Grid{Workload: "random", Noise: "none", N: "4", Rates: "0.001,0.002", Trials: 1, IterFactor: 10}.Build()
	if err != nil {
		t.Fatal(err)
	}
	if len(grid.Cells) != 1 || grid.Cells[0].Key.Rate != 0 || grid.Cells[0].Scenario.Noise != nil {
		t.Fatalf("noiseless grid kept a rate axis: %+v", grid.Cells)
	}
}

// TestScenarioFixedTopologyConflict pins the fixed-topology rule: a
// workload fixed to one family rejects a conflicting explicit topology
// with an error naming the family, and an empty topology resolves to the
// same scenario as the matching explicit name.
func TestScenarioFixedTopologyConflict(t *testing.T) {
	for _, tc := range []struct{ workload, fixed string }{
		{"pipelined-line", "line"},
		{"token-ring", "ring"},
		{"phase-king", "clique"},
	} {
		if _, err := (Scenario{Workload: tc.workload, Topology: "star", N: 4}).Build(); err == nil {
			t.Errorf("%s: conflicting explicit topology accepted", tc.workload)
		} else if !strings.Contains(err.Error(), tc.fixed) {
			t.Errorf("%s: conflict error does not name the fixed topology %q: %v", tc.workload, tc.fixed, err)
		}
		if _, err := (Grid{Workload: tc.workload, Topology: "star", N: "4"}).Build(); err == nil {
			t.Errorf("%s: grid with a conflicting explicit topology accepted", tc.workload)
		}
		matching, err := Scenario{Workload: tc.workload, Topology: tc.fixed, N: 4, Rounds: 40, Seed: 3}.Build()
		if err != nil {
			t.Fatalf("%s: matching explicit topology rejected: %v", tc.workload, err)
		}
		dflt, err := Scenario{Workload: tc.workload, N: 4, Rounds: 40, Seed: 3}.Build()
		if err != nil {
			t.Fatalf("%s: empty topology rejected: %v", tc.workload, err)
		}
		if !reflect.DeepEqual(dflt.Topology, mpic.Topology(tc.fixed, 4)) || !reflect.DeepEqual(matching, dflt) {
			t.Errorf("%s: empty topology resolved to %+v, want the explicit %q scenario", tc.workload, dflt.Topology, tc.fixed)
		}
	}
	// Workloads that run anywhere default to the line.
	sc, err := Scenario{}.Build()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(sc.Topology, mpic.Line(6)) || !reflect.DeepEqual(sc.Workload, mpic.RandomTraffic(0)) {
		t.Errorf("zero spec resolved to %+v / %+v, want line(6) / random", sc.Topology, sc.Workload)
	}
}

func TestGridBuild(t *testing.T) {
	g := Grid{Workload: "random", Noise: "random", N: "4", Schemes: "A",
		Rates: "0,0.001", Trials: 1, Seed: 1, IterFactor: 10}
	grid, err := g.Build()
	if err != nil {
		t.Fatal(err)
	}
	if len(grid.Cells) != 2 {
		t.Fatalf("grid has %d cells, want 2", len(grid.Cells))
	}
	if grid.Spec != g.Spec() {
		t.Fatalf("grid spec %q != fingerprint %q", grid.Spec, g.Spec())
	}
}

// TestGridSweepErrors pins the grid error paths, including party counts
// below one: n=0 once silently ran the 6-party default under key N=6,
// and n=-3 built a grid whose cells panicked in the graph constructor.
func TestGridSweepErrors(t *testing.T) {
	for name, g := range map[string]Grid{
		"empty n":      {Workload: "random", Trials: 1},
		"bad n":        {N: "4,x", Workload: "random", Trials: 1},
		"n=0":          {N: "0", Workload: "random", Trials: 1},
		"n=-3":         {N: "-3", Workload: "random", Trials: 1},
		"late n=0":     {N: "4,0", Workload: "random", Trials: 1},
		"bad rates":    {N: "4", Rates: "0,x", Workload: "random", Trials: 1},
		"bad scheme":   {N: "4", Schemes: "Z", Workload: "random", Trials: 1},
		"bad delay":    {N: "4", Delay: "no-such-delay", Workload: "random", Trials: 1},
		"retired mode": {N: "4", HashMode: "incremental", Workload: "random", Trials: 1},
	} {
		if _, err := g.Build(); err == nil {
			t.Errorf("%s accepted", name)
		}
	}
}

func TestGridNormalizeDefaults(t *testing.T) {
	g := Grid{}.Normalize()
	if g.Workload != "random" || g.Noise != "random" || g.N != "4,6" ||
		g.Schemes != "A" || g.Rates != "0.001" || g.Trials != 10 ||
		g.Seed != 1 || g.IterFactor != 30 {
		t.Fatalf("defaults = %+v", g)
	}
	// Normalize never overrides an explicit value.
	g = Grid{N: "8", Trials: 2}.Normalize()
	if g.N != "8" || g.Trials != 2 {
		t.Fatalf("explicit values overridden: %+v", g)
	}
	if _, err := g.Build(); err != nil {
		t.Fatalf("normalized default grid does not build: %v", err)
	}
}

func TestParseHelpers(t *testing.T) {
	if ns, err := ParseInts(" 4, 6 "); err != nil || len(ns) != 2 || ns[0] != 4 || ns[1] != 6 {
		t.Fatalf("ParseInts = %v, %v", ns, err)
	}
	if _, err := ParseInts("4,x"); err == nil {
		t.Error("bad int accepted")
	}
	if fs, err := ParseFloats("0, 0.002"); err != nil || len(fs) != 2 || fs[1] != 0.002 {
		t.Fatalf("ParseFloats = %v, %v", fs, err)
	}
	if sch, err := ParseSchemes("A,1"); err != nil || len(sch) != 2 || sch[0] != mpic.AlgorithmA {
		t.Fatalf("ParseSchemes = %v, %v", sch, err)
	}
	if _, err := ParseSchemes("A,Z"); err == nil {
		t.Error("bad scheme accepted")
	}
	if _, err := (Grid{N: "", Workload: "random"}).Build(); err == nil || !strings.Contains(err.Error(), "n:") {
		t.Error("empty n accepted")
	}
}
