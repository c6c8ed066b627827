package faults

import (
	"fmt"

	"mpic/internal/core"
)

// panicIterSpread bounds the iteration at which an injected panic fires
// (0-based). Kept small so even tiny test cells reach it.
const panicIterSpread = 3

// CellPlan schedules deterministic in-cell faults: for each afflicted
// cell, a number of leading attempts that panic mid-run (exercising the
// engine's panic recovery and retry). Which cells are afflicted, how many
// attempts fail, and at which iteration are all pure functions of
// (Seed, cell index) — a chaos grid replays identically from its seed.
type CellPlan struct {
	// Seed drives every decision.
	Seed int64
	// PanicRate is the fraction of cells that get a panic schedule.
	PanicRate float64
	// MaxPanics bounds how many leading attempts of an afflicted cell
	// panic (the schedule picks 1..MaxPanics). Keep it below the grid's
	// retry budget so every cell eventually succeeds.
	MaxPanics int
}

// InjectedPanic is the value an injected cell panic carries, so panic
// recovery tests can tell scheduled faults from real bugs.
type InjectedPanic struct {
	// Cell is the afflicted cell's index.
	Cell int
	// Iteration is the 0-based iteration the panic fired at.
	Iteration int
}

// String renders the panic value for logs and recovered-error messages.
func (p InjectedPanic) String() string {
	return fmt.Sprintf("faults: injected panic in cell %d (iteration %d)", p.Cell, p.Iteration)
}

// Panics returns how many leading attempts of the given cell the plan
// makes panic (0 for unafflicted cells) — what a test needs to assert
// the retry budget was exercised as scheduled.
func (p CellPlan) Panics(cell int) int {
	if p.MaxPanics <= 0 || Roll(p.Seed, "cell-panic", uint64(cell)) >= p.PanicRate {
		return 0
	}
	return 1 + Pick(p.Seed, "cell-panic-count", uint64(cell), p.MaxPanics)
}

// Observer builds the fault agent for one cell, to be appended to that
// cell's scenario observers. The agent is stateful (it counts the panics
// it has already thrown, so retried attempts eventually run clean):
// build one agent per cell and never share it across cells. Within a
// cell, attempts and trials execute sequentially on one worker, so the
// agent needs no locking.
func (p CellPlan) Observer(cell int) core.Observer {
	return &cellAgent{
		cell:       cell,
		panicsLeft: p.Panics(cell),
		panicIter:  Pick(p.Seed, "cell-panic-iter", uint64(cell), panicIterSpread),
	}
}

// cellAgent injects one cell's scheduled faults through the engine's
// ordinary Observer hooks — the same attachment surface user scenarios
// use, so the injected failures travel the exact code paths a real
// in-run fault would.
type cellAgent struct {
	cell       int
	panicsLeft int
	panicIter  int
}

// IterationDone implements core.Observer: panic while the fault budget
// lasts.
func (a *cellAgent) IterationDone(st core.IterationStats) {
	if a.panicsLeft > 0 && st.Iteration == a.panicIter {
		a.panicsLeft--
		panic(InjectedPanic{Cell: a.cell, Iteration: st.Iteration})
	}
}
