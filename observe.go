package mpic

import (
	"fmt"
	"io"
	"time"

	"mpic/internal/core"
	"mpic/internal/potential"
)

// Observer receives a callback after every executed iteration of a run
// — the public successor of the old in-package test hook. Observers see
// live but read-only state; they cannot influence the run. Attach them
// through Scenario.Observers (or core's Options.Observers).
//
// An observer may additionally implement RunStartObserver (called once
// with the run's public phase layout before the randomness-exchange
// preamble) or RunEndObserver (called once with the final Result).
type Observer = core.Observer

// IterationStats is the per-iteration snapshot handed to observers: the
// iteration index, the live network accounting, and — when the oracle is
// on — the potential snapshot of the iteration.
type IterationStats = core.IterationStats

// ObserverFunc adapts a function to the Observer interface.
type ObserverFunc = core.ObserverFunc

// RunStartObserver is the optional run-start extension of Observer.
type RunStartObserver = core.RunStartObserver

// RunEndObserver is the optional run-end extension of Observer. In a
// grid cell without Grid.KeepResults the Result it receives has a nil
// Potential: only a caller that receives the Result (Runner.Run,
// RunScenario, a KeepResults cell) gets the trajectory recorded. The
// per-iteration snapshots still reach IterationDone.
type RunEndObserver = core.RunEndObserver

// Snapshot is the oracle's per-iteration ground-truth view (agreed
// prefix, divergence, links in recovery, potential value).
type Snapshot = potential.Snapshot

// NewIterationLog returns a pluggable observer sink that writes one line
// per iteration to w: communication, corruptions, and — when the oracle
// is on — the agreed prefix G* and divergence B*.
func NewIterationLog(w io.Writer) Observer {
	return ObserverFunc(func(st IterationStats) {
		if st.Snapshot != nil {
			fmt.Fprintf(w, "iter %4d: cc=%d corruptions=%d G*=%d B*=%d mp=%d\n",
				st.Iteration, st.Metrics.CC, st.Metrics.TotalCorruptions(),
				st.Snapshot.GStar, st.Snapshot.BStar, st.Snapshot.MeetingLinks)
			return
		}
		fmt.Fprintf(w, "iter %4d: cc=%d corruptions=%d\n",
			st.Iteration, st.Metrics.CC, st.Metrics.TotalCorruptions())
	})
}

// NewProgressLog returns a pluggable sink for a grid's progress stream
// (Grid.Progress): one line per event, prefixed with the cell's position
// and identity, so very-slow single cells stay observable from the
// inside — "trial k of cell j, iteration i". Attach it with
//
//	grid.Progress = mpic.NewProgressLog(os.Stderr)
//
// Iteration lines are emitted for every executed iteration; wrap the
// returned func to subsample if that is too chatty for the grid at hand.
func NewProgressLog(w io.Writer) GridProgressFunc {
	return func(p GridProgress) {
		switch p.Event {
		case GridIteration:
			fmt.Fprintf(w, "%s trial %d/%d iter %d: cc=%d corruptions=%d\n",
				progressID(p), p.Trial+1, p.Trials, p.Iteration,
				p.Stats.Metrics.CC, p.Stats.Metrics.TotalCorruptions())
		default:
			printProgressEvent(w, p, "")
		}
	}
}

// progressID renders a progress event's cell identity prefix.
func progressID(p GridProgress) string {
	id := fmt.Sprintf("cell %d/%d [n=%d %s rate=%g", p.Cell+1, p.Cells, p.Key.N, p.Key.Scheme, p.Key.Rate)
	if p.Key.Delay != "" {
		id += " delay=" + p.Key.Delay
	}
	return id + "]"
}

// printProgressEvent writes the one-line rendering of every non-iteration
// progress event, shared by the plain and the throttled sinks. suffix is
// appended to GridTrialStart lines (the throttled sink's sampling note).
func printProgressEvent(w io.Writer, p GridProgress, suffix string) {
	id := progressID(p)
	switch p.Event {
	case GridCellRestored:
		fmt.Fprintf(w, "%s restored from checkpoint\n", id)
	case GridTrialStart:
		fmt.Fprintf(w, "%s trial %d/%d started (budget %d iterations)%s\n",
			id, p.Trial+1, p.Trials, p.Info.Iterations, suffix)
	case GridTrialDone:
		status := "SUCCESS"
		if !p.Result.Success {
			status = "FAILURE"
		}
		net := ""
		if n := p.Result.Metrics.Net; n != nil {
			net = fmt.Sprintf(" makespan=%.1f late=%d", n.Makespan, n.LateSymbols)
		}
		fmt.Fprintf(w, "%s trial %d/%d done: %s blowup=%.2f iterations=%d%s\n",
			id, p.Trial+1, p.Trials, status, p.Result.Blowup, p.Result.Iterations, net)
	case GridCellDone:
		fmt.Fprintf(w, "%s done (%d trials)\n", id, p.Trials)
	case GridCellRetrying:
		fmt.Fprintf(w, "%s attempt %d failed, retrying: %v\n", id, p.Attempt, p.Err)
	case GridCellFailed:
		fmt.Fprintf(w, "%s FAILED after %d attempt(s), quarantined: %v\n", id, p.Attempt, p.Err)
	}
}

// throttledLog is the state behind NewThrottledProgressLog. Progress
// calls are serialized by the grid engine, so the maps need no lock.
type throttledLog struct {
	w     io.Writer
	every int
	now   func() time.Time
	// budget and start are keyed by (cell, trial); entries are dropped at
	// trial end so a long grid's map stays bounded by in-flight trials.
	budget map[[2]int]int
	start  map[[2]int]time.Time
}

// sampleEvery resolves the sink's sampling stride for a trial: the
// configured stride, or ~5% of the budget (at least 1) when auto.
func (l *throttledLog) sampleEvery(budget int) int {
	if l.every > 0 {
		return l.every
	}
	every := budget / 20
	if every < 1 {
		every = 1
	}
	return every
}

func (l *throttledLog) emit(p GridProgress) {
	key := [2]int{p.Cell, p.Trial}
	switch p.Event {
	case GridTrialStart:
		l.budget[key] = p.Info.Iterations
		l.start[key] = l.now()
		printProgressEvent(l.w, p, fmt.Sprintf(", sampling every %d", l.sampleEvery(p.Info.Iterations)))
	case GridIteration:
		budget := l.budget[key]
		every := l.sampleEvery(budget)
		done := p.Iteration + 1
		if done%every != 0 && done != budget {
			return
		}
		line := fmt.Sprintf("%s trial %d/%d iter %d: cc=%d corruptions=%d",
			progressID(p), p.Trial+1, p.Trials, p.Iteration,
			p.Stats.Metrics.CC, p.Stats.Metrics.TotalCorruptions())
		if budget > 0 {
			line += fmt.Sprintf(" %d%%", 100*done/budget)
			if start, ok := l.start[key]; ok && done < budget {
				elapsed := l.now().Sub(start)
				eta := time.Duration(float64(elapsed) * float64(budget-done) / float64(done))
				line += fmt.Sprintf(" eta=%s", eta.Round(time.Second))
			}
		}
		fmt.Fprintln(l.w, line)
	case GridTrialDone:
		delete(l.budget, key)
		delete(l.start, key)
		printProgressEvent(l.w, p, "")
	default:
		printProgressEvent(l.w, p, "")
	}
}

// NewThrottledProgressLog is NewProgressLog for grids whose trials run
// thousands of iterations (an n≥64 clique under -observe): it subsamples
// the iteration stream — every `every` iterations, or, when every ≤ 0,
// ~5% of each trial's budget — and annotates each sampled line with the
// percentage done and an ETA projected from RunInfo.Iterations, the
// run's iteration budget (with early stop the trial may finish sooner
// than the projection). All other events print exactly like
// NewProgressLog.
func NewThrottledProgressLog(w io.Writer, every int) GridProgressFunc {
	return newThrottledProgressLog(w, every, time.Now)
}

// newThrottledProgressLog lets tests inject the clock.
func newThrottledProgressLog(w io.Writer, every int, now func() time.Time) GridProgressFunc {
	l := &throttledLog{
		w: w, every: every, now: now,
		budget: make(map[[2]int]int),
		start:  make(map[[2]int]time.Time),
	}
	return l.emit
}
