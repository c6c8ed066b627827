package mpic

import (
	"context"
	"testing"
)

// run executes a scenario one-shot.
func run(sc Scenario) (*Result, error) { return RunScenario(context.Background(), sc) }

func TestRunDefaultsNoiseless(t *testing.T) {
	res, err := run(Scenario{Topology: Line(6), Seed: 1, IterFactor: 20})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Success {
		t.Fatalf("default noiseless run failed: G*=%d/%d", res.GStar, res.NumChunks)
	}
}

func TestRunAllWorkloads(t *testing.T) {
	tests := []struct {
		name string
		sc   Scenario
	}{
		{"random/line", Scenario{Topology: Line(4), Workload: RandomTraffic(0), Seed: 2, IterFactor: 20}},
		{"random/star", Scenario{Topology: Star(5), Workload: RandomTraffic(0), Seed: 2, IterFactor: 20}},
		{"pipelined-line", Scenario{Topology: Line(4), Workload: PipelinedLine(40), Seed: 3, IterFactor: 20}},
		{"tree-sum", Scenario{Topology: Tree(6), Workload: TreeSum(60), Seed: 4, IterFactor: 20}},
		{"token-ring", Scenario{Topology: Ring(5), Workload: TokenRing(25), Seed: 5, IterFactor: 20}},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			res, err := run(tt.sc)
			if err != nil {
				t.Fatal(err)
			}
			if !res.Success {
				t.Fatalf("run failed: G*=%d/%d wrong=%d", res.GStar, res.NumChunks, res.WrongParties)
			}
		})
	}
}

func TestRunAllSchemesUnderNoise(t *testing.T) {
	for _, s := range []Scheme{Algorithm1, AlgorithmA, AlgorithmB, AlgorithmC} {
		t.Run(s.String(), func(t *testing.T) {
			res, err := run(Scenario{
				Topology: Line(4), Scheme: s,
				Noise: RandomNoise(0.001),
				Seed:  7, IterFactor: 50,
			})
			if err != nil {
				t.Fatal(err)
			}
			if !res.Success {
				t.Fatalf("%v failed under light noise: G*=%d/%d", s, res.GStar, res.NumChunks)
			}
		})
	}
}

func TestRunAdaptiveNoise(t *testing.T) {
	res, err := run(Scenario{
		Topology: Ring(4), Scheme: AlgorithmB,
		Noise: Adaptive(0.0005),
		Seed:  11, IterFactor: 60,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Success {
		t.Fatalf("AlgorithmB failed under adaptive noise: G*=%d/%d", res.GStar, res.NumChunks)
	}
}

func TestRunValidation(t *testing.T) {
	if _, err := run(Scenario{Topology: Topology("nope", 4)}); err == nil {
		t.Error("bad topology accepted")
	}
	if _, err := run(Scenario{Topology: Line(4), Workload: Workload("nope", 0)}); err == nil {
		t.Error("bad workload accepted")
	}
	if _, err := Noise("nope", 0); err == nil {
		t.Error("bad noise accepted")
	}
	for _, n := range []int{0, -3} {
		if _, err := run(Scenario{Topology: Line(n)}); err == nil {
			t.Errorf("n=%d accepted", n)
		}
	}
}

func TestBaselinesViaFacade(t *testing.T) {
	g, err := NewTopology("line", 4)
	if err != nil {
		t.Fatal(err)
	}
	proto, err := NewWorkload("random", g, 0, 9)
	if err != nil {
		t.Fatal(err)
	}
	ub, err := RunUncodedProtocol(proto, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !ub.Success {
		t.Error("noiseless uncoded baseline failed")
	}
	fec, err := RunNaiveFECProtocol(proto, nil, 3)
	if err != nil {
		t.Fatal(err)
	}
	if !fec.Success {
		t.Error("noiseless FEC baseline failed")
	}
	if _, err := RunNaiveFECProtocol(proto, nil, 2); err == nil {
		t.Error("even repetition accepted")
	}
}

func TestNewTopologyAndWorkload(t *testing.T) {
	g, err := NewTopology("ring", 5)
	if err != nil {
		t.Fatal(err)
	}
	p, err := NewWorkload("random", g, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	if p.Graph().N() != 5 {
		t.Error("workload graph wrong")
	}
	if _, err := NewWorkload("nope", g, 10, 1); err == nil {
		t.Error("unknown workload accepted")
	}
}

func TestFaithfulModeRunsAllIterations(t *testing.T) {
	res, err := run(Scenario{Topology: Line(3), Workload: RandomTraffic(30), Seed: 13, IterFactor: 5, Faithful: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.Iterations != 5*res.NumChunks {
		t.Fatalf("faithful mode ran %d iterations, want %d", res.Iterations, 5*res.NumChunks)
	}
	if !res.Success {
		t.Error("faithful noiseless run failed")
	}
}
