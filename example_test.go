package mpic_test

import (
	"context"
	"fmt"

	"mpic"
)

// The primary entry point: a typed Scenario executed by a Runner. The
// Runner can be reused — it keeps per-link hash buffers warm across runs
// — and honors context cancellation.
func ExampleRunner_Run() {
	runner := mpic.NewRunner()
	defer runner.Close()
	res, err := runner.Run(context.Background(), mpic.Scenario{
		Topology: mpic.Ring(5),
		Workload: mpic.RandomTraffic(60),
		Scheme:   mpic.AlgorithmA,
		Noise:    mpic.RandomNoise(0.001),
		Seed:     1,
	})
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	fmt.Println("success:", res.Success)
	// Output:
	// success: true
}

// Runner.CollectGrid runs a grid of cells — here party counts × noise
// rates — and returns the per-cell statistics in definition order.
func ExampleRunner_CollectGrid() {
	var grid mpic.Grid
	for _, n := range []int{4, 5} {
		for _, rate := range []float64{0, 0.001} {
			grid.Cells = append(grid.Cells, mpic.GridCell{
				Key: mpic.GridKey{Rate: rate},
				Scenario: mpic.Scenario{
					Topology:   mpic.Line(n),
					Workload:   mpic.RandomTraffic(40),
					Noise:      mpic.RandomNoise(rate),
					Seed:       2,
					IterFactor: 15,
				},
				Trials: 2,
			})
		}
	}
	runner := mpic.NewRunner()
	defer runner.Close()
	cells, err := runner.CollectGrid(context.Background(), grid)
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	noiseless := 0
	for _, c := range cells {
		if c.Key.Rate == 0 && c.Cell.Successes == c.Cell.Trials {
			noiseless++
		}
	}
	fmt.Printf("cells: %d, noiseless cells fully successful: %d\n", len(cells), noiseless)
	// Output:
	// cells: 4, noiseless cells fully successful: 2
}

// The simplest use: protect a built-in workload over a noisy line with
// Algorithm A and check the run against the noiseless reference.
func ExampleRunScenario() {
	res, err := mpic.RunScenario(context.Background(), mpic.Scenario{
		Topology: mpic.Line(5),
		Workload: mpic.RandomTraffic(0),
		Scheme:   mpic.AlgorithmA,
		Noise:    mpic.RandomNoise(0.001),
		Seed:     1,
	})
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	fmt.Println("success:", res.Success)
	// Output:
	// success: true
}

// Baselines run the same workload without interactive coding, for
// comparison tables.
func ExampleRunUncodedProtocol() {
	g, err := mpic.NewTopology("ring", 4)
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	proto, err := mpic.NewWorkload("random", g, 0, 2)
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	res, err := mpic.RunUncodedProtocol(proto, nil)
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	fmt.Printf("success: %v, blowup: %.0fx\n", res.Success, res.Blowup)
	// Output:
	// success: true, blowup: 1x
}

// Advanced use: explicit parameters and a custom adversary via
// RunProtocol.
func ExampleRunProtocol() {
	g, err := mpic.NewTopology("star", 5)
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	proto, err := mpic.NewWorkload("random", g, 60, 3)
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	params := mpic.ParamsFor(mpic.Algorithm1, g)
	params.CRSKey = 3
	// Delete 5 payload bits on the link 0→1.
	adv := mpic.NewFixedDeletions(0, 1, 10, 5)
	res, err := mpic.RunProtocol(proto, params, adv)
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	fmt.Printf("success: %v after %d corruptions\n",
		res.Success, res.Metrics.TotalCorruptions())
	// Output:
	// success: true after 5 corruptions
}
