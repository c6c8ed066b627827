package mpic

import (
	"context"

	"mpic/internal/core"
)

// Runner executes scenarios while holding run-to-run state: a shared
// arena that recycles every link's hash block buffers, so batch drivers
// (sweeps, experiment tables, services replaying many scenarios) stop
// paying the per-run seed-materialization allocations. Results are
// bit-identical to one-shot runs.
//
// A Runner is safe for concurrent use; Close releases the pooled memory
// (using the Runner afterwards is still valid — it just re-warms).
type Runner struct {
	arena *core.Arena
}

// NewRunner returns a Runner with an empty arena.
func NewRunner() *Runner { return &Runner{arena: core.NewArena()} }

// Run executes one scenario. ctx cancels the run between iterations
// (ctx.Err() is returned and the partial run is discarded); pass
// context.Background() when cancellation is not needed. A nil Runner is
// valid and runs without an arena.
func (r *Runner) Run(ctx context.Context, sc Scenario) (*Result, error) {
	opts, err := sc.options()
	if err != nil {
		return nil, err
	}
	opts.Context = ctx
	if r != nil {
		opts.Arena = r.arena
	}
	return core.Run(opts)
}

// Close drops the Runner's pooled memory.
func (r *Runner) Close() {
	if r != nil {
		r.arena.Reset()
	}
}

// RunScenario executes one scenario without a reusable Runner — the
// one-shot typed entry point.
func RunScenario(ctx context.Context, sc Scenario) (*Result, error) {
	return (*Runner)(nil).Run(ctx, sc)
}

// SweepCell aggregates the runs of one grid point.
type SweepCell struct {
	// N, Scheme, Rate and Delay identify the cell (its GridKey). Rate is
	// meaningful only on grids with a rate axis; Delay is the delay
	// model's registered name ("" = lockstep).
	N      int
	Scheme Scheme
	Rate   float64
	Delay  string `json:",omitempty"`
	// Trials and Successes count runs and runs whose every party decoded
	// correctly.
	Trials    int
	Successes int
	// Blowups and Iterations hold the per-trial communication blowup and
	// executed iteration count, in trial order.
	Blowups    []float64
	Iterations []float64
	// Corruptions and Collisions total the adversary's landed corruptions
	// and the oracle-observed hash collisions across trials.
	Corruptions int64
	Collisions  int64
	// BrokenSeedLinks totals the link endpoints whose randomness exchange
	// failed across trials.
	BrokenSeedLinks int
	// WhiteBox totals the collision attacker's bookkeeping across trials
	// (zero unless the scenario set WhiteBoxRate).
	WhiteBox WhiteBoxStats
}

// Merge accumulates another cell's trials into c — the streaming
// consumers' aggregation primitive (e.g. folding per-seed grid cells
// into one total). The key fields (N, Scheme, Rate, Delay) are left untouched;
// merging cells with different keys is the caller's decision.
func (c *SweepCell) Merge(other SweepCell) {
	c.Trials += other.Trials
	c.Successes += other.Successes
	c.Blowups = append(c.Blowups, other.Blowups...)
	c.Iterations = append(c.Iterations, other.Iterations...)
	c.Corruptions += other.Corruptions
	c.Collisions += other.Collisions
	c.BrokenSeedLinks += other.BrokenSeedLinks
	c.WhiteBox.Tried += other.WhiteBox.Tried
	c.WhiteBox.Landed += other.WhiteBox.Landed
}

// SuccessRate is Successes/Trials.
func (c SweepCell) SuccessRate() float64 {
	if c.Trials == 0 {
		return 0
	}
	return float64(c.Successes) / float64(c.Trials)
}

// MeanBlowup averages the per-trial communication blowups.
func (c SweepCell) MeanBlowup() float64 { return mean(c.Blowups) }

// MeanIterations averages the per-trial executed iteration counts.
func (c SweepCell) MeanIterations() float64 { return mean(c.Iterations) }

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}
