package mpic

import (
	"context"
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"
)

// GridKey identifies one cell of a grid by its (n, scheme, rate, delay)
// coordinates — the explicit key streaming consumers and resumed runs
// merge on, instead of relying on cell order.
type GridKey struct {
	// N is the party count of the cell's topology.
	N int
	// Scheme is the coding scheme the cell runs.
	Scheme Scheme
	// Rate is the cell's noise rate; meaningful only for grids built over
	// a rate axis (zero otherwise).
	Rate float64
	// Delay is the cell's delay-model name; "" means the lockstep
	// network (so pre-delay grids keep their exact keys).
	Delay string `json:",omitempty"`
}

// GridCell is one executable point of a Grid: a complete scenario, the
// number of trial seeds to aggregate, and the key its aggregate is
// reported under.
//
// Seed derivation is the engine's determinism anchor: trial t of a cell
// runs at Scenario.Seed + t·SeedStep, a pure function of the cell's own
// spec. No shared counter, RNG, or scheduling state ever feeds a run, so
// executing the same grid sequentially, in parallel, shuffled, or across
// a checkpoint/resume boundary produces bit-identical cells. Builders
// that want per-cell seed diversity salt Scenario.Seed when they lay out
// the grid (deterministically, e.g. from the cell's coordinates) — never
// at execution time.
type GridCell struct {
	// Key identifies the cell's aggregate. Zero fields are filled in by
	// the engine from the scenario — N from the topology's party count,
	// Scheme from the scenario's scheme (AlgorithmA if that too is
	// unset); Rate keeps whatever the builder put there.
	Key GridKey
	// Scenario is the cell's base scenario; Seed is re-derived per trial.
	Scenario Scenario
	// Trials is the number of seeds to aggregate. Zero means 1 (the
	// documented default); a negative count is a spec error RunGrid
	// rejects before anything runs.
	Trials int
	// SeedStep is the per-trial seed stride (default 1).
	SeedStep int64
}

// Grid is a batch of scenario cells for the streaming parallel engine.
// Cells are independent by construction (see GridCell on seed
// derivation), which is what lets the engine hand them to a worker pool
// without changing any result.
type Grid struct {
	// Cells are the grid points, in definition order.
	Cells []GridCell
	// Workers bounds the number of cells executing concurrently; 0 means
	// GOMAXPROCS, 1 forces sequential execution. A negative count is a
	// spec error RunGrid rejects before anything runs. Results are
	// identical at any valid setting — only wall-clock and completion
	// order change.
	Workers int
	// KeepResults retains every trial's full *Result on the streamed
	// GridCellResult — for consumers that need per-run detail (potential
	// trajectories, round counts) beyond the SweepCell aggregate. Off by
	// default: a long grid's Results would otherwise pin every
	// transcript's metrics in memory. With a Store set, a KeepResults
	// grid also persists the serializable core of each trial's Result
	// (see StoredResult), so restored cells stream their Results back and
	// trajectory consumers resume without re-running — minus the fields a
	// checkpoint cannot carry (Outputs, Arena).
	KeepResults bool
	// Store, when non-nil, makes the grid a durable session: completed
	// cells already persisted under this grid's spec are restored (and
	// streamed, marked Restored) instead of re-run, and every cell the
	// engine completes is persisted the moment it finishes — so a
	// cancelled or crashed grid resumes from exactly the cells it got
	// through. Resumed and uninterrupted runs produce bit-identical
	// cells (see GridCell on seed derivation). A Load or Save error
	// aborts the grid.
	Store GridStore
	// Spec is the fingerprint the Store keys this grid's state under; a
	// store holding a different spec refuses to resume. Empty means
	// Fingerprint() — set it explicitly when the grid's identity lives
	// outside what a fingerprint can see (CLI flags, Tune closures,
	// custom builders).
	Spec string
	// Progress, when non-nil, receives the grid's fine-grained progress
	// stream: per-trial starts, per-iteration ticks, per-trial results,
	// cell completions, restores, retries, and failures. Progress calls
	// are serialized with each other (one at a time, happens-before
	// ordered) across all workers, so the callback may write to its own
	// shared state without locking — but they are NOT serialized with
	// GridSink calls: at Workers > 1 a progress event can fire while
	// another cell's sink delivery is in flight, so state shared between
	// the two callbacks needs its own lock. A slow callback stalls the
	// runs that feed it. See NewProgressLog for a ready-made sink.
	Progress GridProgressFunc
	// Retries is how many extra attempts a failed cell (run error or
	// recovered panic) gets, each run straight away; 0 runs each cell
	// once, and a negative count is a spec error RunGrid rejects before
	// anything runs. Retried attempts re-derive the exact same trial
	// seeds, so a cell that fails transiently and then succeeds is
	// bit-identical to one that succeeded first try. Cancellation is
	// never retried.
	Retries int
	// OnCellError selects what a cell failure (after retries) does to the
	// rest of the grid: FailFast (the default) cancels the grid and
	// returns the cell's error; QuarantineCells keeps going, streams the
	// failed cell with GridCellResult.Err set, and reports every
	// quarantined cell in the *GridFailure the run returns.
	OnCellError CellErrorMode
}

// CellErrorMode selects Grid.OnCellError behavior.
type CellErrorMode int

const (
	// FailFast cancels the grid on the first cell failure — the default,
	// and the right mode when any failure invalidates the whole batch.
	FailFast CellErrorMode = iota
	// QuarantineCells finishes the grid despite cell failures: failed
	// cells stream through the sink with Err set (and are NOT persisted
	// to the session store, so a resumed run re-attempts them), healthy
	// cells complete normally, and RunGrid returns a *GridFailure
	// reporting the quarantined cells.
	QuarantineCells
)

// CellPanicError is a panic recovered inside a grid cell — from a
// protocol, an observer, or a Tune closure — converted into an ordinary
// cell error so one poisoned cell cannot take down the whole process.
// It participates in retries and quarantine like any other cell error.
type CellPanicError struct {
	// Cell is the cell's index in Grid.Cells; Key its identity.
	Cell int
	Key  GridKey
	// Value is the recovered panic value.
	Value any
	// Stack is the goroutine stack captured at recovery.
	Stack []byte
}

// Error implements error.
func (e *CellPanicError) Error() string {
	return fmt.Sprintf("mpic: grid cell %d (n=%d scheme=%v rate=%g) panicked: %v",
		e.Cell, e.Key.N, e.Key.Scheme, e.Key.Rate, e.Value)
}

// GridReport summarizes a finished grid run for quarantine-mode
// consumers: how much completed, and exactly which cells failed.
type GridReport struct {
	// Cells is the grid size.
	Cells int
	// Completed counts cells that finished successfully this run
	// (excluding restored ones).
	Completed int
	// Restored counts cells replayed from the session store.
	Restored int
	// Failed holds the quarantined cells in completion order, each with
	// Err and Attempts set. Failed cells are never persisted to the
	// session store, so a resumed run re-attempts them.
	Failed []GridCellResult
}

// GridFailure is the error RunGrid returns when a quarantine-mode grid
// finishes with failed cells: the grid ran to completion, the healthy
// cells are valid (and persisted, for durable sessions), and Report says
// what failed. Callers distinguish this partial success from a hard
// failure with errors.As.
type GridFailure struct {
	Report GridReport
}

// Error implements error.
func (e *GridFailure) Error() string {
	n := len(e.Report.Failed)
	first := e.Report.Failed[0]
	return fmt.Sprintf("mpic: grid finished with %d of %d cells failed (first: cell %d after %d attempt(s): %v)",
		n, e.Report.Cells, first.Index, first.Attempts, first.Err)
}

// Unwrap exposes the first failed cell's error to errors.Is/As.
func (e *GridFailure) Unwrap() error { return e.Report.Failed[0].Err }

// GridEvent identifies the kind of a GridProgress event.
type GridEvent int

const (
	// GridCellRestored: the cell was replayed from the session's Store
	// instead of executed (identity fields only).
	GridCellRestored GridEvent = iota
	// GridTrialStart: a trial is about to execute its first round; Info
	// carries the run's phase layout and iteration budget.
	GridTrialStart
	// GridIteration: the trial finished one iteration; Iteration is its
	// 0-based index and Stats the live per-iteration snapshot.
	GridIteration
	// GridTrialDone: the trial finished; Result is its outcome.
	GridTrialDone
	// GridCellDone: every trial of the cell finished (identity fields
	// only — the aggregate streams through the GridSink).
	GridCellDone
	// GridCellRetrying: an attempt of the cell failed and the engine is
	// about to re-run it; Err is the attempt's error and Attempt its
	// 1-based number.
	GridCellRetrying
	// GridCellFailed: the cell exhausted its attempts under
	// Grid.OnCellError == QuarantineCells; Err is the final error and
	// Attempt the total attempts made.
	GridCellFailed
)

// String names the event for logs and tests.
func (e GridEvent) String() string {
	switch e {
	case GridCellRestored:
		return "cell-restored"
	case GridTrialStart:
		return "trial-start"
	case GridIteration:
		return "iteration"
	case GridTrialDone:
		return "trial-done"
	case GridCellDone:
		return "cell-done"
	case GridCellRetrying:
		return "cell-retrying"
	case GridCellFailed:
		return "cell-failed"
	default:
		return fmt.Sprintf("GridEvent(%d)", int(e))
	}
}

// GridProgress is one event of a grid's progress stream — "trial k of
// cell j, iteration i" — built from the run-level Observer hooks the
// engine threads through every trial it executes.
type GridProgress struct {
	// Event says what happened; the fields below it are valid per event
	// kind (see the GridEvent constants).
	Event GridEvent
	// Cell is the cell's index in Grid.Cells; Cells the grid size.
	Cell, Cells int
	// Key is the cell's (n, scheme, rate) identity.
	Key GridKey
	// Trial is the 0-based trial within the cell; Trials the cell's
	// trial count. Trial is meaningful for trial-scoped events only.
	Trial, Trials int
	// Iteration is the 0-based iteration index of a GridIteration event.
	Iteration int
	// Info is the run's phase layout for GridTrialStart events (nil
	// otherwise); Info.Iterations is the trial's iteration budget.
	Info *RunInfo
	// Stats is the live per-iteration snapshot of a GridIteration event
	// (nil otherwise). Like any Observer payload it is engine-owned and
	// read-only, valid only for the duration of the callback.
	Stats *IterationStats
	// Result is the trial's outcome for GridTrialDone events (nil
	// otherwise).
	Result *Result
	// Err is the cell's error for GridCellRetrying and GridCellFailed
	// events (nil otherwise).
	Err error
	// Attempt is the 1-based attempt number for GridCellRetrying (the
	// attempt that just failed) and GridCellFailed (total attempts made);
	// zero otherwise.
	Attempt int
}

// GridProgressFunc receives serialized progress events; see
// Grid.Progress.
type GridProgressFunc func(GridProgress)

// GridCellResult is one completed cell, streamed to the sink as soon as
// its trials finish — before the rest of the grid completes.
type GridCellResult struct {
	// Index is the cell's position in Grid.Cells (completion order is
	// nondeterministic under parallelism; Index and Key are not).
	Index int
	// Key is the cell's identity, echoed (or derived) from the spec.
	Key GridKey
	// Cell is the aggregate over the cell's trials.
	Cell SweepCell
	// Results holds the per-trial results when Grid.KeepResults is set,
	// in trial order; nil otherwise. Restored cells rebuild Results from
	// the session store when it persisted them (KeepResults sessions do;
	// restored results carry nil Outputs and Arena — see StoredResult).
	Results []*Result
	// Restored marks a cell replayed from the session's Store rather
	// than executed this run.
	Restored bool
	// Err is the cell's final error for quarantined cells (Grid.
	// OnCellError == QuarantineCells); nil for healthy cells. A cell with
	// Err set carries no aggregate and is not persisted.
	Err error
	// Attempts is how many times the cell ran (1 for first-try successes
	// and restored cells report 0); with retries enabled it counts the
	// attempts actually spent.
	Attempts int
}

// GridSink receives completed cells. The engine serializes calls (one
// sink invocation at a time, happens-before ordered), so a sink may
// write to shared state without its own locking; it must not block for
// long, since a blocked sink stalls the worker that completed the cell.
type GridSink func(GridCellResult)

// validate rejects spec errors before anything runs: the engine clamps
// documented zero values (Workers 0 → GOMAXPROCS, Trials 0 → 1) but a
// negative count is a bug in the caller's grid construction, not a
// request for a default.
func (g Grid) validate() error {
	if g.Workers < 0 {
		return fmt.Errorf("mpic: Grid.Workers is %d; negative worker counts are invalid (0 means GOMAXPROCS, 1 forces sequential)", g.Workers)
	}
	if g.Retries < 0 {
		return fmt.Errorf("mpic: Grid.Retries is %d; negative retry counts are invalid (0 means run once)", g.Retries)
	}
	if g.OnCellError != FailFast && g.OnCellError != QuarantineCells {
		return fmt.Errorf("mpic: Grid.OnCellError is %d; valid modes are FailFast (0) and QuarantineCells (1)", g.OnCellError)
	}
	for i, c := range g.Cells {
		if c.Trials < 0 {
			return fmt.Errorf("mpic: grid cell %d has Trials %d; negative trial counts are invalid (0 means 1)", i, c.Trials)
		}
	}
	return nil
}

// progressEmitter serializes progress events across workers.
type progressEmitter struct {
	mu sync.Mutex
	fn GridProgressFunc
}

func (p *progressEmitter) emit(ev GridProgress) {
	p.mu.Lock()
	// Unlock by defer: an injected or genuine panic unwinding out of a
	// run (through the observer that feeds this emitter) must not leave
	// the emitter locked, or the recovery path's own events would
	// deadlock.
	defer p.mu.Unlock()
	p.fn(ev)
}

// trialProgress forwards one trial's Observer callbacks into the grid's
// progress stream — the bridge from the run-level RunStart/Iteration/
// RunEnd hooks to serialized GridProgress events.
type trialProgress struct {
	emit func(GridProgress)
	base GridProgress // identity template: cell, key, trial
}

// RunStarted implements RunStartObserver.
func (t *trialProgress) RunStarted(info RunInfo) {
	ev := t.base
	ev.Event = GridTrialStart
	ev.Info = &info
	t.emit(ev)
}

// IterationDone implements Observer.
func (t *trialProgress) IterationDone(st IterationStats) {
	ev := t.base
	ev.Event = GridIteration
	ev.Iteration = st.Iteration
	ev.Stats = &st
	t.emit(ev)
}

// RunDone implements RunEndObserver.
func (t *trialProgress) RunDone(res *Result) {
	ev := t.base
	ev.Event = GridTrialDone
	ev.Result = res
	t.emit(ev)
}

// gridSession is the engine-side state of a durable grid: the resolved
// spec, the store, and every completed cell (restored and fresh) in the
// order they were persisted.
type gridSession struct {
	store    GridStore
	spec     string
	cells    []StoredCell
	restored []GridCellResult
}

// save persists the session's completed cells.
func (s *gridSession) save() error {
	if err := s.store.Save(s.spec, s.cells); err != nil {
		return fmt.Errorf("mpic: persisting grid checkpoint: %w", err)
	}
	return nil
}

// openSession loads the grid's persisted state and splits the cells into
// restored results and the indices still pending execution. Matching is
// two-pass: an entry whose recorded Index names a grid cell with the
// same key reclaims exactly that cell — so cells that share a key but
// differ in content (ablation variants, Tune sweeps, the cartesian fuzz
// grid) resume correctly whatever order the previous run completed them
// in. Entries without a usable index (a store written by another layout
// or a hand-edited file) fall back to key matching in definition order,
// which is the documented contract for identical duplicate keys.
func (g Grid) openSession() (*gridSession, []int, error) {
	spec := g.Spec
	if spec == "" {
		spec = g.Fingerprint()
	}
	saved, err := g.Store.Load(spec)
	if err != nil {
		return nil, nil, err
	}
	s := &gridSession{store: g.Store, spec: spec}
	byCell := make(map[int]StoredCell, len(saved))
	var keyed []StoredCell
	for _, e := range saved {
		_, taken := byCell[e.Index]
		if !taken && e.Index >= 0 && e.Index < len(g.Cells) && g.Cells[e.Index].key() == e.Key {
			byCell[e.Index] = e
			continue
		}
		keyed = append(keyed, e)
	}
	have := make(map[GridKey][]StoredCell, len(keyed))
	for _, e := range keyed {
		have[e.Key] = append(have[e.Key], e)
	}
	var pending []int
	for i, cell := range g.Cells {
		e, ok := byCell[i]
		if !ok {
			k := cell.key()
			entries := have[k]
			if len(entries) == 0 {
				pending = append(pending, i)
				continue
			}
			e = entries[0]
			have[k] = entries[1:]
		}
		e.Index = i
		s.cells = append(s.cells, e)
		res := GridCellResult{Index: i, Key: e.Key, Cell: e.Cell, Restored: true}
		if g.KeepResults {
			res.Results = restoreResults(e.Results)
		}
		s.restored = append(s.restored, res)
	}
	return s, pending, nil
}

// RunGrid executes every cell of the grid on a worker pool and streams
// each completed cell through sink (which may be nil). It returns after
// the whole grid finishes, the context is cancelled, or a cell fails —
// whichever comes first; on error, cells already streamed remain valid
// and the rest are abandoned.
//
// Cell failures are contained: a panic inside a cell is recovered into a
// *CellPanicError, Grid.Retries re-runs failed cells at once (bit-
// identically — attempts re-derive the same trial seeds), and
// Grid.OnCellError == QuarantineCells finishes the grid around
// unrecoverable cells, returning their inventory as a *GridFailure.
//
// With Grid.Store set the grid is a durable session: previously
// completed cells are restored and streamed first (in definition order,
// marked Restored), only the rest execute, and each fresh completion is
// persisted before it streams — a cancelled grid's store holds exactly
// the cells that finished. With Grid.Progress set, fine-grained events
// narrate execution inside each cell.
//
// Parallel execution is result-identical to sequential: each cell's
// trials depend only on the cell spec (see GridCell), and the Runner's
// arena is safe for concurrent draws. Scenario state shared between
// cells — Observers, a Tune closure mutating captured state — must be
// safe for concurrent use when Workers > 1.
func (r *Runner) RunGrid(ctx context.Context, g Grid, sink GridSink) error {
	if err := g.validate(); err != nil {
		return err
	}
	if len(g.Cells) == 0 {
		return nil
	}
	if ctx == nil {
		ctx = context.Background()
	}

	var prog *progressEmitter
	if g.Progress != nil {
		prog = &progressEmitter{fn: g.Progress}
	}

	// Durable session: restore persisted cells before anything runs.
	var sess *gridSession
	var pending []int
	if g.Store != nil {
		var err error
		sess, pending, err = g.openSession()
		if err != nil {
			return err
		}
		for _, res := range sess.restored {
			if prog != nil {
				cell := g.Cells[res.Index]
				trials := cell.Trials
				if trials < 1 {
					trials = 1
				}
				prog.emit(GridProgress{
					Event: GridCellRestored,
					Cell:  res.Index, Cells: len(g.Cells),
					Key: res.Key, Trials: trials,
				})
			}
			if sink != nil {
				sink(res)
			}
		}
	} else {
		pending = make([]int, len(g.Cells))
		for i := range pending {
			pending[i] = i
		}
	}
	if len(pending) == 0 {
		return nil
	}

	workers := g.Workers
	if workers == 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(pending) {
		workers = len(pending)
	}

	// Cancelling the derived context on the first error stops the other
	// workers at their next run boundary without racing the caller's ctx.
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()

	var (
		next      atomic.Int64 // next pending slot to take
		mu        sync.Mutex   // serializes sink calls, session saves, firstErr
		firstErr  error
		completed int
		failed    []GridCellResult
		wg        sync.WaitGroup
	)
	next.Store(-1)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				slot := int(next.Add(1))
				if slot >= len(pending) || ctx.Err() != nil {
					return
				}
				i := pending[slot]
				res, err := r.runGridCellRetrying(ctx, g, i, prog)
				mu.Lock()
				if err != nil && g.OnCellError == QuarantineCells && ctx.Err() == nil {
					// Quarantine: record and stream the failure, keep the
					// grid going. The cell is NOT persisted — a resumed
					// session re-attempts it.
					res.Err = err
					res.Results = nil
					res.Cell = SweepCell{N: res.Key.N, Scheme: res.Key.Scheme, Rate: res.Key.Rate, Delay: res.Key.Delay}
					failed = append(failed, res)
					if prog != nil {
						prog.emit(GridProgress{
							Event: GridCellFailed,
							Cell:  res.Index, Cells: len(g.Cells),
							Key: res.Key, Err: err, Attempt: res.Attempts,
						})
					}
					if sink != nil {
						sink(res)
					}
					mu.Unlock()
					continue
				}
				if err == nil && sess != nil {
					sess.cells = append(sess.cells, StoredCell{
						Index: res.Index, Key: res.Key, Cell: res.Cell,
						Results: storeResults(res.Results),
					})
					err = sess.save()
				}
				if err != nil {
					if firstErr == nil {
						firstErr = err
						cancel()
					}
					mu.Unlock()
					return
				}
				completed++
				if prog != nil {
					prog.emit(GridProgress{
						Event: GridCellDone,
						Cell:  res.Index, Cells: len(g.Cells),
						Key: res.Key, Trials: res.Cell.Trials,
					})
				}
				if sink != nil {
					sink(res)
				}
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	if sess != nil && (firstErr != nil || ctx.Err() != nil) {
		// Flush on any interrupted exit — including cancellations that
		// surface as a wrapped run error in firstErr, and cell failures.
		// Every completed cell was persisted as it finished, so this
		// re-save is a no-op for FileGridStore; it exists to make the
		// session's contract ("the store holds exactly the completed
		// cells") hold even for a store that batches its writes. A flush
		// failure never masks the original error.
		if err := sess.save(); err != nil && firstErr == nil {
			return err
		}
	}
	if firstErr != nil {
		return firstErr
	}
	if completed+len(failed) == len(pending) {
		// Every cell ran and streamed; a cancellation that landed after
		// the last one must not make the caller discard a complete grid.
		if len(failed) > 0 {
			restored := 0
			if sess != nil {
				restored = len(sess.restored)
			}
			return &GridFailure{Report: GridReport{
				Cells:     len(g.Cells),
				Completed: completed,
				Restored:  restored,
				Failed:    failed,
			}}
		}
		return nil
	}
	return ctx.Err()
}

// runGridCellRetrying runs one cell up to Grid.Retries+1 times: each
// attempt re-derives the same trial seeds (so a retried success is
// bit-identical to a first-try success), recovered panics count as
// ordinary attempt failures, and cancellation is returned immediately
// rather than retried.
func (r *Runner) runGridCellRetrying(ctx context.Context, g Grid, i int, prog *progressEmitter) (GridCellResult, error) {
	for attempt := 1; ; attempt++ {
		res, err := r.runGridCellOnce(ctx, g.Cells[i], i, len(g.Cells), g.KeepResults, prog)
		res.Attempts = attempt
		if err == nil || attempt > g.Retries {
			return res, err
		}
		if ctx.Err() != nil {
			// Cancellation, not the cell, ended its retries: a retry would
			// have run had the grid gone on, so the grid was cancelled.
			return res, fmt.Errorf("mpic: grid cell %d: %w before retrying (%v)", i, ctx.Err(), err)
		}
		if prog != nil {
			prog.emit(GridProgress{
				Event: GridCellRetrying,
				Cell:  i, Cells: len(g.Cells),
				Key: res.Key, Err: err, Attempt: attempt,
			})
		}
	}
}

// runGridCellOnce is one attempt of one cell, with panic containment: a
// panic anywhere inside the cell's trials — protocol code, noise
// closures, observers — comes back as a *CellPanicError instead of
// crashing the pool, so the retry and quarantine machinery can treat it
// like any other cell failure.
func (r *Runner) runGridCellOnce(ctx context.Context, cell GridCell, index, total int, keep bool, prog *progressEmitter) (res GridCellResult, err error) {
	key := cell.key()
	defer func() {
		if p := recover(); p != nil {
			// A panic skipped runGridCell's return: rebuild the cell's
			// identity so the failure is reported against the right cell.
			res = GridCellResult{
				Index: index, Key: key,
				Cell: SweepCell{N: key.N, Scheme: key.Scheme, Rate: key.Rate, Delay: key.Delay},
			}
			err = &CellPanicError{Cell: index, Key: key, Value: p, Stack: debug.Stack()}
		}
	}()
	return r.runGridCell(ctx, cell, index, total, keep, prog)
}

// CollectGrid is RunGrid buffered into a slice: it runs the grid and
// returns the completed cells in definition order. Use RunGrid directly
// when you want the cells as they finish.
func (r *Runner) CollectGrid(ctx context.Context, g Grid) ([]GridCellResult, error) {
	out := make([]GridCellResult, len(g.Cells))
	err := r.RunGrid(ctx, g, func(res GridCellResult) {
		out[res.Index] = res
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// key resolves the cell's identity, deriving unset fields from the
// scenario so a partial key never mislabels results (a key claiming
// AlgorithmA while the scenario ran AlgorithmB would poison every
// key-based merge downstream).
func (c GridCell) key() GridKey {
	k := c.Key
	if k.N == 0 {
		k.N = c.Scenario.partyCount()
	}
	if k.Scheme == 0 {
		k.Scheme = c.Scenario.Scheme
	}
	if k.Scheme == 0 {
		k.Scheme = AlgorithmA
	}
	if k.Delay == "" && c.Scenario.Delay != nil {
		k.Delay = c.Scenario.Delay.DelayName()
	}
	return k
}

// runGridCell executes one cell's trials and aggregates them.
func (r *Runner) runGridCell(ctx context.Context, cell GridCell, index, total int, keep bool, prog *progressEmitter) (GridCellResult, error) {
	key := cell.key()
	trials := cell.Trials
	if trials < 1 {
		trials = 1
	}
	step := cell.SeedStep
	if step == 0 {
		step = 1
	}
	out := GridCellResult{
		Index: index,
		Key:   key,
		Cell:  SweepCell{N: key.N, Scheme: key.Scheme, Rate: key.Rate, Delay: key.Delay},
	}
	agg := &out.Cell
	for trial := 0; trial < trials; trial++ {
		sc := cell.Scenario
		sc.Seed = cell.Scenario.Seed + int64(trial)*step
		if prog != nil {
			// The progress observer rides the same Observer hooks user
			// scenarios attach through; appending to a copy keeps the
			// cell's own observer list untouched across trials.
			tp := &trialProgress{emit: prog.emit, base: GridProgress{
				Cell: index, Cells: total,
				Key:   key,
				Trial: trial, Trials: trials,
			}}
			sc.Observers = append(append([]Observer(nil), sc.Observers...), tp)
		}
		res, err := r.Run(ctx, sc)
		if err != nil {
			return out, fmt.Errorf("grid cell n=%d scheme=%v rate=%g trial=%d: %w",
				key.N, key.Scheme, key.Rate, trial, err)
		}
		agg.Trials++
		if res.Success {
			agg.Successes++
		}
		agg.Blowups = append(agg.Blowups, res.Blowup)
		agg.Iterations = append(agg.Iterations, float64(res.Iterations))
		agg.Corruptions += res.Metrics.TotalCorruptions()
		agg.Collisions += res.Metrics.HashCollisions
		agg.BrokenSeedLinks += res.BrokenSeedLinks
		if res.WhiteBox != nil {
			agg.WhiteBox.Tried += res.WhiteBox.Tried
			agg.WhiteBox.Landed += res.WhiteBox.Landed
		}
		if keep {
			out.Results = append(out.Results, res)
		}
	}
	return out, nil
}
