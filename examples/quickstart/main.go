// Quickstart: simulate a generic protocol over a noisy 6-party line with
// Algorithm A and check that every party still computes the right output.
//
// A run is described by a typed Scenario — topology, workload, scheme,
// noise — and executed by a Runner (which can be reused across runs and
// cancelled through its context). The command-line equivalent is
//
//	go run ./cmd/mpicsim -topology line -n 6 -scheme A -noise random -rate 0.002 -seed 42
//
// Run with:
//
//	go run ./examples/quickstart
package main

import (
	"context"
	"fmt"
	"log"

	"mpic"
)

func main() {
	runner := mpic.NewRunner()
	defer runner.Close()
	res, err := runner.Run(context.Background(), mpic.Scenario{
		Topology: mpic.Line(6),
		Workload: mpic.RandomTraffic(0), // 0 rounds = the 30·n default
		Scheme:   mpic.AlgorithmA,
		Noise:    mpic.RandomNoise(0.002), // ≈ ε/m worth of insertions/deletions/flips
		Seed:     42,
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("success: %v\n", res.Success)
	fmt.Printf("protocol: %d chunks, %d bits\n", res.NumChunks, res.CCProtocol)
	fmt.Printf("coded run: %d bits (%.1fx), %d iterations, %d corruptions survived\n",
		res.Metrics.CC, res.Blowup, res.Iterations, res.Metrics.TotalCorruptions())
}
