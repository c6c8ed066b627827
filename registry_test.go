package mpic_test

import (
	"context"
	"fmt"
	"sort"
	"strings"
	"testing"

	"mpic"
	"mpic/internal/gridspec"
)

// The external registrations below live at package test scope — outside
// package mpic — so they double as the "pluggable from outside the
// module" proof for the registry API (examples/customnoise is the
// compiled-example counterpart).
func init() {
	if err := mpic.RegisterTopology("test-double-line", func(n int) (*mpic.Graph, error) {
		// A line with an extra chord 0-2.
		g := mpic.NewGraph(n)
		for i := 0; i+1 < n; i++ {
			if err := g.AddEdge(mpic.Node(i), mpic.Node(i+1)); err != nil {
				return nil, err
			}
		}
		if n > 2 {
			if err := g.AddEdge(0, 2); err != nil {
				return nil, err
			}
		}
		if err := g.Validate(); err != nil {
			return nil, err
		}
		return g, nil
	}); err != nil {
		panic(err)
	}
	if err := mpic.RegisterWorkload("test-sparse", mpic.WorkloadDef{
		Build: func(g *mpic.Graph, rounds int, seed int64) (mpic.Protocol, error) {
			return mpic.NewWorkload("random", g, rounds/2, seed)
		},
	}); err != nil {
		panic(err)
	}
	if err := mpic.RegisterNoise("test-quiet", func(rate float64) mpic.NoiseSpec {
		return nil // registered name for "no noise at any rate"
	}); err != nil {
		panic(err)
	}
}

// TestRegistryDuplicateAndInvalid pins the registration error contract.
func TestRegistryDuplicateAndInvalid(t *testing.T) {
	if err := mpic.RegisterTopology("line", func(n int) (*mpic.Graph, error) { return nil, nil }); err == nil {
		t.Error("duplicate topology registration accepted")
	}
	if err := mpic.RegisterWorkload("random", mpic.WorkloadDef{Build: func(g *mpic.Graph, r int, s int64) (mpic.Protocol, error) { return nil, nil }}); err == nil {
		t.Error("duplicate workload registration accepted")
	}
	if err := mpic.RegisterNoise("random", func(rate float64) mpic.NoiseSpec { return nil }); err == nil {
		t.Error("duplicate noise registration accepted")
	}
	if err := mpic.RegisterTopology("", func(n int) (*mpic.Graph, error) { return nil, nil }); err == nil {
		t.Error("empty topology name accepted")
	}
	if err := mpic.RegisterTopology("no-builder", nil); err == nil {
		t.Error("nil topology builder accepted")
	}
	if err := mpic.RegisterWorkload("no-builder", mpic.WorkloadDef{}); err == nil {
		t.Error("workload without builder accepted")
	}
	if err := mpic.RegisterNoise("no-family", nil); err == nil {
		t.Error("nil noise family accepted")
	}
}

// TestRegistryUnknownNames pins the lookup error contract: unknown names
// fail with an error that lists what is registered.
func TestRegistryUnknownNames(t *testing.T) {
	if _, err := mpic.NewTopology("nope", 4); err == nil || !strings.Contains(err.Error(), "line") {
		t.Errorf("unknown topology error should list registered names, got %v", err)
	}
	g, err := mpic.NewTopology("line", 4)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := mpic.NewWorkload("nope", g, 10, 1); err == nil || !strings.Contains(err.Error(), "random") {
		t.Errorf("unknown workload error should list registered names, got %v", err)
	}
	if _, err := mpic.Noise("nope", 0.1); err == nil || !strings.Contains(err.Error(), "burst") {
		t.Errorf("unknown noise error should list registered names, got %v", err)
	}
}

// TestRegistryNamesSorted pins the Names accessors.
func TestRegistryNamesSorted(t *testing.T) {
	for _, tc := range []struct {
		kind  string
		names []string
		want  string
	}{
		{"topology", mpic.TopologyNames(), "test-double-line"},
		{"workload", mpic.WorkloadNames(), "test-sparse"},
		{"noise", mpic.NoiseNames(), "test-quiet"},
	} {
		if !sort.StringsAreSorted(tc.names) {
			t.Errorf("%s names unsorted: %v", tc.kind, tc.names)
		}
		found := false
		for _, n := range tc.names {
			if n == tc.want {
				found = true
			}
		}
		if !found {
			t.Errorf("%s names missing external registration %q: %v", tc.kind, tc.want, tc.names)
		}
	}
}

// TestExternalRegistrationsRun drives the three test-scope registrations
// through both the typed and the string surface.
func TestExternalRegistrationsRun(t *testing.T) {
	res, err := runSpec(gridspec.Scenario{
		Topology: "test-double-line", N: 5,
		Workload: "test-sparse", Rounds: 60,
		Noise: "test-quiet", Rate: 0.5,
		Seed: 3, IterFactor: 15,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Success {
		t.Fatalf("external-registration run failed: G*=%d/%d", res.GStar, res.NumChunks)
	}
	typed, err := mpic.RunScenario(context.Background(), mpic.Scenario{
		Topology: mpic.Topology("test-double-line", 5),
		Workload: mpic.Workload("test-sparse", 60),
		Seed:     3, IterFactor: 15,
	})
	if err != nil {
		t.Fatal(err)
	}
	sameResult(t, res, typed)
}

// ExampleRegisterNoise shows third-party noise registration end to end.
func ExampleRegisterNoise() {
	err := mpic.RegisterNoise("example-drop-none", func(rate float64) mpic.NoiseSpec {
		return mpic.NoiseFunc("example-drop-none", func(env mpic.NoiseEnv) (mpic.WiredNoise, error) {
			return mpic.WiredNoise{Adversary: mpic.NewFixedDeletions(0, 1, 0, 0)}, nil
		})
	})
	if err != nil {
		fmt.Println("register:", err)
		return
	}
	noise, err := mpic.Noise("example-drop-none", 0)
	if err != nil {
		fmt.Println("noise:", err)
		return
	}
	res, runErr := mpic.RunScenario(context.Background(), mpic.Scenario{
		Topology: mpic.Line(4), Noise: noise, Seed: 1, IterFactor: 10,
	})
	if runErr != nil {
		fmt.Println("run:", runErr)
		return
	}
	fmt.Println("success:", res.Success)
	// Output:
	// success: true
}

// runSpec resolves a string spec through internal/gridspec and runs it
// one-shot.
func runSpec(spec gridspec.Scenario) (*mpic.Result, error) {
	sc, err := spec.Build()
	if err != nil {
		return nil, err
	}
	return mpic.RunScenario(context.Background(), sc)
}

// checkShim runs a string spec (internal/gridspec, the string shim over
// the typed API) and its hand-built typed Scenario through one Runner and
// asserts bit-identical results.
func checkShim(t *testing.T, runner *mpic.Runner, spec gridspec.Scenario, typed mpic.Scenario) {
	t.Helper()
	sc, err := spec.Build()
	if err != nil {
		t.Fatalf("Build(): %v", err)
	}
	viaSpec, err := runner.Run(context.Background(), sc)
	if err != nil {
		t.Fatalf("spec run: %v", err)
	}
	direct, err := runner.Run(context.Background(), typed)
	if err != nil {
		t.Fatalf("typed run: %v", err)
	}
	sameResult(t, viaSpec, direct)
}

// TestShimEquivalenceTopologies routes every registered built-in topology
// name through both surfaces.
func TestShimEquivalenceTopologies(t *testing.T) {
	runner := mpic.NewRunner()
	defer runner.Close()
	for _, topo := range []string{"line", "ring", "star", "clique", "tree", "random"} {
		t.Run(topo, func(t *testing.T) {
			checkShim(t, runner, gridspec.Scenario{
				Topology: topo, N: 4, Workload: "random",
				Noise: "random", Rate: 0.001,
				Seed: 5, IterFactor: 15,
			}, mpic.Scenario{
				Topology: mpic.Topology(topo, 4), Workload: mpic.RandomTraffic(0),
				Noise: mpic.RandomNoise(0.001),
				Seed:  5, IterFactor: 15,
			})
		})
	}
}

// TestShimEquivalenceWorkloads routes every registered built-in workload
// name through both surfaces (topology left empty in the spec: the
// fixed-topology workloads must pick their own family, the rest "line").
func TestShimEquivalenceWorkloads(t *testing.T) {
	runner := mpic.NewRunner()
	defer runner.Close()
	for _, tc := range []struct {
		workload string
		topo     mpic.TopologySpec
	}{
		{"random", mpic.Line(4)},
		{"dense", mpic.Line(4)},
		{"phase-king", mpic.Clique(4)},
		{"pipelined-line", mpic.Line(4)},
		{"tree-sum", mpic.Line(4)},
		{"token-ring", mpic.Ring(4)},
	} {
		t.Run(tc.workload, func(t *testing.T) {
			checkShim(t, runner, gridspec.Scenario{
				Workload: tc.workload, N: 4, Rounds: 40,
				Seed: 7, IterFactor: 15,
			}, mpic.Scenario{
				Topology: tc.topo, Workload: mpic.Workload(tc.workload, 40),
				Seed: 7, IterFactor: 15,
			})
		})
	}
}

// TestShimEquivalenceNoises routes every registered built-in noise name
// through both surfaces, across the scheme whose randomness mode the
// noise stresses.
func TestShimEquivalenceNoises(t *testing.T) {
	runner := mpic.NewRunner()
	defer runner.Close()
	for _, tc := range []struct {
		noise  string
		scheme string
		rate   float64
		typed  mpic.NoiseSpec
	}{
		{"none", "1", 0, nil},
		{"random", "A", 0.002, mpic.RandomNoise(0.002)},
		{"burst", "A", 0.002, mpic.BurstNoise(0.002)},
		{"adaptive", "B", 0.0005, mpic.Adaptive(0.0005)},
	} {
		t.Run(tc.noise, func(t *testing.T) {
			scheme, err := mpic.ParseScheme(tc.scheme)
			if err != nil {
				t.Fatal(err)
			}
			checkShim(t, runner, gridspec.Scenario{
				Topology: "ring", N: 4, Scheme: tc.scheme,
				Noise: tc.noise, Rate: tc.rate,
				Seed: 11, IterFactor: 20,
			}, mpic.Scenario{
				Topology: mpic.Ring(4), Scheme: scheme,
				Noise: tc.typed,
				Seed:  11, IterFactor: 20,
			})
		})
	}
}
