package main

import (
	"context"
	"fmt"
	"time"

	"mpic"
)

// scenarioSystem runs one library-default scenario per op on a reused
// Runner, sequentially: scenario-lockstep on the synchronous network,
// scenario-des on the virtual-time engine with lognormal delays and delay
// spikes, where late symbols become insertion–deletion noise.
type scenarioSystem struct {
	seed   int64
	des    bool
	runner *mpic.Runner
}

func newScenarioSystem(cfg config, des bool) system {
	return &scenarioSystem{seed: cfg.seed, des: des}
}

// scenario is the input at one seed, which drives the traffic, the noise
// and the delays; op i runs at seed+i.
func (d *scenarioSystem) scenario(seed int64) mpic.Scenario {
	sc := mpic.Scenario{
		Topology:   mpic.RandomTopology(12),
		Workload:   mpic.RandomTraffic(150),
		Scheme:     mpic.AlgorithmA,
		Noise:      mpic.RandomNoise(0.0003),
		IterFactor: 32,
		Seed:       seed,
	}
	if d.des {
		sc.Delay = mpic.LognormalDelay(0.2)
		sc.Faults = &mpic.NetFaults{SpikeRate: 0.0005}
	}
	return sc
}

func (d *scenarioSystem) setup() error {
	d.runner.Close()
	d.runner = mpic.NewRunner()
	res, err := d.runner.Run(context.Background(), d.scenario(warmupSeed))
	_, err = d.check(res, err)
	return err
}

func (d *scenarioSystem) run(ph *phase) error {
	for {
		i, ok := ph.claim()
		if !ok {
			return nil
		}
		sc := d.scenario(d.seed + int64(i))
		var obs *runObserver
		if ph.tr != nil {
			obs = &runObserver{}
			sc.Observers = []mpic.Observer{obs}
		}
		start := time.Now()
		res, err := d.runner.Run(context.Background(), sc)
		end := time.Now()
		hash, err := d.check(res, err)
		ph.done(i, end.Sub(start), hash, err)
		if obs != nil && err == nil {
			obs.record(ph.tr, i, start, end)
			recordResult(ph.tr, res)
		}
	}
}

func (d *scenarioSystem) close() { d.runner.Close() }

// check verifies a run's structure and returns its result hash.
func (d *scenarioSystem) check(res *mpic.Result, err error) (string, error) {
	if err != nil {
		return "", err
	}
	m := res.Metrics
	switch {
	case m == nil || m.CC <= 0 || m.Rounds <= 0:
		return "", fmt.Errorf("run has no communication accounting")
	case res.Iterations < 1 || res.Iterations != m.Iterations:
		return "", fmt.Errorf("run reports %d iterations, metrics %d", res.Iterations, m.Iterations)
	case res.Success != (res.WrongParties == 0):
		return "", fmt.Errorf("success %v with %d wrong parties", res.Success, res.WrongParties)
	case res.Blowup != float64(m.CC)/float64(res.CCProtocol):
		return "", fmt.Errorf("blowup %g is not CC/CC(Π) = %d/%d", res.Blowup, m.CC, res.CCProtocol)
	case d.des != (m.Net != nil):
		return "", fmt.Errorf("virtual-time accounting present=%v on a des=%v run", m.Net != nil, d.des)
	}
	return resultHash(res), nil
}

// resultHash pins the fields a run's correctness rests on.
func resultHash(res *mpic.Result) string {
	m := res.Metrics
	s := fmt.Sprintf("success=%t iterations=%d cc=%d corruptions=%v gstar=%d", res.Success, res.Iterations, m.CC, m.Corruptions, res.GStar)
	if n := m.Net; n != nil {
		s += fmt.Sprintf(" late=%d delivered=%d dropped=%d erasures=%d", n.LateSymbols, n.LateDelivered, n.LateDropped, n.Erasures)
	}
	return hashString(s)
}

// recordResult adds a run's counters to the traced phase.
func recordResult(tr *tracer, res *mpic.Result) {
	m := res.Metrics
	tr.add("core.runs", 1)
	tr.add("core.iterations", float64(res.Iterations))
	tr.add("core.rounds", float64(m.Rounds))
	tr.add("core.cc", float64(m.CC))
	tr.add("hashing.comparisons", float64(m.HashComparisons))
	tr.add("hashing.collisions", float64(m.HashCollisions))
	tr.add("adversary.corruptions", float64(m.TotalCorruptions()))
	if a := res.Arena; a != nil {
		tr.add("core.arena_hits", float64(a.Hits))
		tr.add("core.arena_draws", float64(a.Hits+a.Misses))
	}
	if n := m.Net; n != nil {
		tr.add("network.late_symbols", float64(n.LateSymbols))
		tr.add("network.erasures", float64(n.Erasures))
	}
}

// runObserver times one run's lifecycle from the Observer callbacks.
type runObserver struct {
	started, last time.Time
	gaps          []float64 // µs between consecutive iterations
}

func (o *runObserver) RunStarted(mpic.RunInfo) { o.started = time.Now() }

func (o *runObserver) IterationDone(mpic.IterationStats) {
	now := time.Now()
	if !o.last.IsZero() {
		o.gaps = append(o.gaps, float64(now.Sub(o.last))/float64(time.Microsecond))
	}
	o.last = now
}

// record turns the callbacks of a run called at start and returned at end
// into spans and distributions: set-up (call → RunStarted), iterations
// (RunStarted → last iteration) and teardown (last iteration → return).
func (o *runObserver) record(tr *tracer, op int, start, end time.Time) {
	if o.started.IsZero() || o.last.IsZero() {
		return
	}
	root := tr.span(op, "mpic.Runner.Run", 0, start, end)
	tr.span(op, "core.setup", root, start, o.started)
	tr.span(op, "core.iterations", root, o.started, o.last)
	tr.span(op, "core.teardown", root, o.last, end)
	tr.observe("core.setup_ms", ms(o.started.Sub(start)))
	tr.observe("core.teardown_ms", ms(end.Sub(o.last)))
	for _, g := range o.gaps {
		tr.observe("core.iteration_us", g)
	}
}
