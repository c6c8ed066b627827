// Progress: run a parameter grid as a durable, observable session.
//
// The grid engine (mpic.Runner.RunGrid) executes every cell of an
// n × rate grid; two options turn the batch into a session:
//
//   - Store (here an mpic.FileGridStore) persists each completed cell
//     the moment it finishes, so interrupting this program — Ctrl-C,
//     crash, reboot — and re-running it resumes from the finished cells
//     instead of restarting. Delete session.json to start over.
//   - Progress streams fine-grained events ("trial k of cell j,
//     iteration i") through a serialized callback; mpic.NewProgressLog
//     is the ready-made sink used here on stderr.
//
// Resumed and uninterrupted runs are bit-identical: every trial's seed
// is a pure function of its cell's spec, never of scheduling or resume
// state.
//
// Run with:
//
//	go run ./examples/progress
package main

import (
	"context"
	"fmt"
	"log"
	"os"

	"mpic"
)

func main() {
	// One cell per (n, rate) point; the key's rate labels the cell, and
	// N and scheme are derived from the scenario.
	var grid mpic.Grid
	for _, n := range []int{4, 5} {
		for _, rate := range []float64{0, 0.002} {
			grid.Cells = append(grid.Cells, mpic.GridCell{
				Key: mpic.GridKey{Rate: rate},
				Scenario: mpic.Scenario{
					Topology:   mpic.Line(n),
					Workload:   mpic.RandomTraffic(0),
					Scheme:     mpic.AlgorithmA,
					Noise:      mpic.RandomNoise(rate),
					Seed:       7,
					IterFactor: 20,
				},
				Trials: 2,
			})
		}
	}
	grid.Store = mpic.NewFileGridStore("session.json")
	grid.Progress = mpic.NewProgressLog(os.Stderr)

	runner := mpic.NewRunner()
	defer runner.Close()
	restored := 0
	err := runner.RunGrid(context.Background(), grid, func(res mpic.GridCellResult) {
		marker := ""
		if res.Restored {
			restored++
			marker = "  (restored)"
		}
		fmt.Printf("n=%d rate=%g: %d/%d succeeded, blowup %.1fx%s\n",
			res.Key.N, res.Key.Rate, res.Cell.Successes, res.Cell.Trials,
			res.Cell.MeanBlowup(), marker)
	})
	if err != nil {
		log.Fatal(err)
	}
	if restored > 0 {
		fmt.Printf("%d of %d cells restored from session.json (delete it to re-run everything)\n",
			restored, len(grid.Cells))
	}
}
