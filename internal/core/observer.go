package core

import (
	"mpic/internal/potential"
	"mpic/internal/trace"
)

// IterationStats is the per-iteration snapshot handed to observers.
type IterationStats struct {
	// Iteration is the 0-based index of the iteration that just finished.
	Iteration int
	// Metrics is the run's live network accounting. It is shared with the
	// engine: observers must treat it as read-only.
	Metrics *trace.Metrics
	// Snapshot is the oracle's potential snapshot for this iteration, nil
	// when Params.Oracle is off. Each iteration has its own, and it stays
	// valid after the callback, with or without a recorded trajectory.
	Snapshot *potential.Snapshot
}

// Observer receives a callback after every executed iteration of a run.
// Observers see the execution; they must not influence it — the engine
// hands them live but read-only state. Attach observers through
// Options.Observers.
//
// An observer may additionally implement RunStartObserver or
// RunEndObserver for run-lifecycle callbacks.
type Observer interface {
	IterationDone(st IterationStats)
}

// ObserverFunc adapts a function to the Observer interface.
type ObserverFunc func(st IterationStats)

// IterationDone implements Observer.
func (f ObserverFunc) IterationDone(st IterationStats) { f(st) }

// RunStartObserver is an optional Observer extension: RunStarted fires
// once before the randomness-exchange preamble, with the public phase
// layout of the run.
type RunStartObserver interface {
	RunStarted(info RunInfo)
}

// RunEndObserver is an optional Observer extension: RunDone fires once
// with the final result, after outputs are collected. A run started with
// Options.DropTrajectory (a grid cell without KeepResults) hands it a
// Result whose Potential is nil; IterationDone still saw every snapshot.
type RunEndObserver interface {
	RunDone(res *Result)
}

// partyInspector is the in-package test hook that replaced the old
// testAfterIter field: an observer additionally implementing it gets the
// live parties after every iteration. Unexported on purpose — the
// whitebox invariant checks (incremental-vs-reference hash agreement
// under rewind storms) need party internals no public observer should
// see.
type partyInspector interface {
	inspectParties(it int, parties []*party)
}

// notifyIteration dispatches the per-iteration callbacks.
func notifyIteration(obs []Observer, st IterationStats, parties []*party) {
	for _, o := range obs {
		if pi, ok := o.(partyInspector); ok {
			pi.inspectParties(st.Iteration, parties)
		}
		o.IterationDone(st)
	}
}
