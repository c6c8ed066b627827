package main

import "fmt"

// system is one workload's system under test and its load, driven
// through the library's public entry points.
type system interface {
	// setup builds a fresh system under test and runs one warm-up op
	// (part of set-up time, not a measured op), releasing what an
	// earlier setup built.
	setup() error
	// run executes ops until the phase closes.
	run(ph *phase) error
	// close releases the system under test.
	close()
}

// warmupSeed is the input seed of every set-up's warm-up op. It does
// not depend on -seed, so set-up does the same work on every run, and it
// lies far from any op's seed, so no warm-up runs an op's input.
const warmupSeed = 1 << 40

// config is what a system derives its inputs from.
type config struct {
	seed  int64
	short bool   // a smoke-test-sized system (the grid's first 10 cells)
	tmp   string // scratch directory for session stores and service data
}

// workload names a system, the number of its ops pinned at the default
// seed, and the number a -short run executes (at most 1% of them). Op i's
// input is a pure function of (seed, i), so two runs at one seed execute
// the same ops in the same order.
type workload struct {
	name     string
	ops      int
	shortOps int
	new      func(cfg config) system
}

var workloads = []workload{
	{name: "tables-quick", ops: tablesPasses * 14, shortOps: 4, new: newTablesSystem},
	{name: "scenario-lockstep", ops: 2400, shortOps: 24, new: func(cfg config) system { return newScenarioSystem(cfg, false) }},
	{name: "scenario-des", ops: 550, shortOps: 5, new: func(cfg config) system { return newScenarioSystem(cfg, true) }},
	{name: "grid-session", ops: 1000, shortOps: shortGridCells, new: newGridSystem},
	{name: "serve", ops: 160, shortOps: 1, new: newServeSystem},
}

func lookupWorkload(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return workload{}, fmt.Errorf("unknown workload %q (have %v and all)", name, names)
}
