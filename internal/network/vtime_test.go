package network

import (
	"errors"
	"math"
	"sort"
	"testing"

	"mpic/internal/adversary"
	"mpic/internal/bitstring"
	"mpic/internal/channel"
	"mpic/internal/graph"
)

// TestEventHeapPopOrder is the heap's property test: however events are
// pushed, they pop sorted by (time, seq). The push sequence is shuffled
// by a small deterministic LCG so the property is exercised across many
// orderings without real randomness.
func TestEventHeapPopOrder(t *testing.T) {
	lcg := uint64(0x2545F4914F6CDD1D)
	next := func(n int) int {
		lcg = lcg*6364136223846793005 + 1442695040888963407
		return int((lcg >> 33) % uint64(n))
	}
	for trial := 0; trial < 50; trial++ {
		n := 1 + next(64)
		evs := make([]event, n)
		for i := range evs {
			// Coarse times force (time) ties that only seq can break.
			evs[i] = event{time: float64(next(8)), seq: uint64(i)}
		}
		for i := n - 1; i > 0; i-- {
			j := next(i + 1)
			evs[i], evs[j] = evs[j], evs[i]
		}
		var h eventHeap
		for _, ev := range evs {
			h.push(ev)
		}
		var popped []event
		for len(h) > 0 {
			popped = append(popped, h.pop())
		}
		if !sort.SliceIsSorted(popped, func(i, j int) bool {
			return eventLess(popped[i], popped[j])
		}) {
			t.Fatalf("trial %d: pop order not sorted by (time, seq): %+v", trial, popped)
		}
		for i := 1; i < len(popped); i++ {
			if popped[i-1].time == popped[i].time && popped[i-1].seq >= popped[i].seq {
				t.Fatalf("trial %d: tie not broken by seq", trial)
			}
		}
	}
}

// cliqueFns is a deterministic non-trivial send pattern over n parties.
func cliqueFns(n int) map[int]func(int, graph.Node) bitstring.Symbol {
	fns := make(map[int]func(int, graph.Node) bitstring.Symbol, n)
	for i := 0; i < n; i++ {
		id := i
		fns[i] = func(r int, to graph.Node) bitstring.Symbol {
			return bitstring.Symbol(uint8(r+id+int(to)) % 3)
		}
	}
	return fns
}

// TestTimedUnitMatchesLockstep is the engine-equivalence pin: the DES
// path under the unit delay model (forced on via forceTimed — SetTiming
// would normally keep the classic path) delivers exactly what the
// synchronous loop delivers, with identical metrics, plus the
// virtual-time extras (makespan = rounds, no late symbols).
func TestTimedUnitMatchesLockstep(t *testing.T) {
	g := graph.Clique(5)
	const rounds = 20
	pat := adversary.NewPattern()
	pat.Set(3, channel.Link{From: 0, To: 1}, 1)
	pat.Set(7, channel.Link{From: 2, To: 4}, 2)

	psA, epsA := mkParties(5, cliqueFns(5))
	engA, _ := NewEngine(g, psA, pat, nil)
	engA.RunRounds(0, rounds)

	psB, epsB := mkParties(5, cliqueFns(5))
	engB, _ := NewEngine(g, psB, pat, nil)
	engB.forceTimed = true
	engB.SetTiming(Unit{}, nil)
	if engB.timing == nil {
		t.Fatal("forceTimed engine did not take the DES path")
	}
	engB.RunRounds(0, rounds)

	mA, mB := engA.Metrics(), engB.Metrics()
	if mA.CC != mB.CC {
		t.Fatalf("CC differs: lockstep %d vs timed %d", mA.CC, mB.CC)
	}
	if mA.Corruptions != mB.Corruptions {
		t.Fatalf("corruptions differ: %v vs %v", mA.Corruptions, mB.Corruptions)
	}
	for i := range epsA {
		a, b := epsA[i].received, epsB[i].received
		if len(a) != len(b) {
			t.Fatalf("party %d received %d vs %d deliveries", i, len(a), len(b))
		}
		for j := range a {
			if a[j] != b[j] {
				t.Fatalf("party %d delivery %d differs: %+v vs %+v", i, j, a[j], b[j])
			}
		}
	}
	net := mB.Net
	if net == nil {
		t.Fatal("timed engine recorded no NetStats")
	}
	if net.Makespan != rounds {
		t.Fatalf("unit-model makespan = %g, want %d", net.Makespan, rounds)
	}
	if net.LateSymbols != 0 || net.LateDelivered != 0 || net.LateDropped != 0 || net.Erasures != 0 {
		t.Fatalf("unit model produced timing faults: %+v", net)
	}
	if mA.Net != nil {
		t.Fatal("lockstep engine grew NetStats")
	}
}

// scriptDelay lets a test hand-place arrival times.
type scriptDelay struct {
	d func(round int, link channel.Link) float64
}

func (s scriptDelay) Delay(round int, link channel.Link) float64 { return s.d(round, link) }
func (scriptDelay) Lockstep() bool                               { return false }

// TestDeadlineInsdelMapping pins the deadline synchronizer's noise
// mapping symbol by symbol: a late arrival is a deletion at its deadline
// and an insertion when it lands in a silent slot; a late arrival whose
// slot is occupied is dropped with only the deletion as its trace.
func TestDeadlineInsdelMapping(t *testing.T) {
	g := graph.Line(2)
	// Party 0 sends Sym1 in rounds 0 and 1, then goes quiet; party 1
	// never transmits.
	ps, eps := mkParties(2, map[int]func(int, graph.Node) bitstring.Symbol{
		0: func(r int, to graph.Node) bitstring.Symbol {
			if r <= 1 {
				return bitstring.Sym1
			}
			return bitstring.Silence
		},
	})
	// Round 0's symbol takes 1.5 rounds (late, lands inside round 1);
	// everything else is on time.
	eng, _ := NewEngine(g, ps, nil, nil)
	eng.SetTiming(scriptDelay{d: func(r int, l channel.Link) float64 {
		if r == 0 && l.From == 0 {
			return 1.5
		}
		return 0.5
	}}, nil)
	eng.RunRounds(0, 4)

	// Round 0: deletion (the symbol misses its deadline, party 1 sees
	// silence). Round 1: the on-time round-1 symbol owns the slot, so the
	// round-0 straggler is dropped.
	m := eng.Metrics()
	if m.Net.LateSymbols != 1 || m.Net.LateDropped != 1 || m.Net.LateDelivered != 0 {
		t.Fatalf("occupied-slot case: late=%d dropped=%d delivered=%d, want 1/1/0",
			m.Net.LateSymbols, m.Net.LateDropped, m.Net.LateDelivered)
	}
	if m.Corruptions[channel.KindDeletion] != 1 {
		t.Fatalf("deletions = %d, want 1", m.Corruptions[channel.KindDeletion])
	}
	var got []recorded
	for _, r := range eps[1].received {
		if r.from == 0 {
			got = append(got, r)
		}
	}
	want := []bitstring.Symbol{bitstring.Silence, bitstring.Sym1, bitstring.Silence, bitstring.Silence}
	for i, w := range want {
		if got[i].sym != w {
			t.Fatalf("party 1 round %d received %v, want %v (full: %+v)", i, got[i].sym, w, got)
		}
	}

	// Same script, but party 0 only sends in round 0: the straggler lands
	// in round 1's silent slot — an out-of-band insertion.
	ps2, eps2 := mkParties(2, map[int]func(int, graph.Node) bitstring.Symbol{
		0: func(r int, to graph.Node) bitstring.Symbol {
			if r == 0 {
				return bitstring.Sym1
			}
			return bitstring.Silence
		},
	})
	eng2, _ := NewEngine(g, ps2, nil, nil)
	eng2.SetTiming(scriptDelay{d: func(r int, l channel.Link) float64 {
		if r == 0 && l.From == 0 {
			return 1.5
		}
		return 0.5
	}}, nil)
	eng2.RunRounds(0, 4)
	m2 := eng2.Metrics()
	if m2.Net.LateSymbols != 1 || m2.Net.LateDelivered != 1 || m2.Net.LateDropped != 0 {
		t.Fatalf("silent-slot case: late=%d delivered=%d dropped=%d, want 1/1/0",
			m2.Net.LateSymbols, m2.Net.LateDelivered, m2.Net.LateDropped)
	}
	if m2.Corruptions[channel.KindDeletion] != 1 || m2.Corruptions[channel.KindInsertion] != 1 {
		t.Fatalf("corruptions = %v, want one deletion and one insertion", m2.Corruptions)
	}
	if eps2[1].received[0].sym != bitstring.Silence {
		t.Fatal("round 0 should deliver silence (deadline missed)")
	}
	var r1 []recorded
	for _, r := range eps2[1].received {
		if r.from == 0 && r.round == 1 {
			r1 = append(r1, r)
		}
	}
	if len(r1) != 1 || r1[0].sym != bitstring.Sym1 {
		t.Fatalf("round 1 delivery = %+v, want the late Sym1", r1)
	}
	// Makespan: the straggler landed at 1.5 but the run goes 4 rounds.
	if m2.Net.Makespan != 4 {
		t.Fatalf("makespan = %g, want 4", m2.Net.Makespan)
	}
}

// TestFaultScheduleDeterministicWiring: the straggler set and crash
// windows are pure functions of the seed — identical across Wire calls,
// different (with overwhelming probability) across seeds — and crash
// windows stay inside the middle half of the run.
func TestFaultScheduleDeterministicWiring(t *testing.T) {
	spec := FaultSchedule{Seed: 11, Stragglers: 2, Crashes: 2, CrashLen: 10}
	const n, rounds = 8, 200
	a, err := spec.Wire(n, rounds)
	if err != nil {
		t.Fatal(err)
	}
	b, _ := spec.Wire(n, rounds)
	nStrag, nCrash := 0, 0
	for p := 0; p < n; p++ {
		node := graph.Node(p)
		if a.Straggler(node) != b.Straggler(node) {
			t.Fatalf("straggler set differs across identical Wire calls at party %d", p)
		}
		if a.crashStart[p] != b.crashStart[p] || a.crashEnd[p] != b.crashEnd[p] {
			t.Fatalf("crash window differs across identical Wire calls at party %d", p)
		}
		if a.Straggler(node) {
			nStrag++
		}
		if a.crashEnd[p] > a.crashStart[p] {
			nCrash++
			if a.crashStart[p] < rounds/4 || a.crashEnd[p] > rounds {
				t.Fatalf("party %d crash window [%d,%d) outside the middle of a %d-round run",
					p, a.crashStart[p], a.crashEnd[p], rounds)
			}
		}
	}
	if nStrag != 2 || nCrash != 2 {
		t.Fatalf("wired %d stragglers and %d crashes, want 2 and 2", nStrag, nCrash)
	}

	other := spec
	other.Seed = 12
	c, _ := other.Wire(n, rounds)
	same := true
	for p := 0; p < n; p++ {
		if a.Straggler(graph.Node(p)) != c.Straggler(graph.Node(p)) ||
			a.crashStart[p] != c.crashStart[p] {
			same = false
		}
	}
	if same {
		t.Fatal("seed 11 and 12 wired identical fault schedules")
	}

	// Per-round decisions replay too.
	l := channel.Link{From: 1, To: 2}
	for r := 0; r < rounds; r++ {
		if a.Erased(l, r) != b.Erased(l, r) || a.ExtraDelay(l, r) != b.ExtraDelay(l, r) {
			t.Fatalf("per-round fault decisions differ at round %d", r)
		}
	}
}

// TestCrashWindowSilence: during a party's crash window every symbol it
// sends or is sent is erased in transit (deletions), and after the
// window traffic resumes — crash-stop/restart, not abort.
func TestCrashWindowSilence(t *testing.T) {
	g := graph.Clique(4)
	const rounds = 100
	spec := FaultSchedule{Seed: 5, Crashes: 1, CrashLen: 12}
	wf, err := spec.Wire(4, rounds)
	if err != nil {
		t.Fatal(err)
	}
	crashed := -1
	for p := 0; p < 4; p++ {
		if wf.crashEnd[p] > wf.crashStart[p] {
			crashed = p
		}
	}
	if crashed < 0 {
		t.Fatal("no crash window wired")
	}

	ps, eps := mkParties(4, cliqueFns(4))
	eng, _ := NewEngine(g, ps, nil, nil)
	eng.SetTiming(Unit{}, wf)
	eng.RunRounds(0, rounds)

	inWindow := func(r int) bool { return r >= wf.crashStart[crashed] && r < wf.crashEnd[crashed] }
	for i, ep := range eps {
		for _, rec := range ep.received {
			if inWindow(rec.round) && (int(rec.from) == crashed || i == crashed) && rec.sym != bitstring.Silence {
				t.Fatalf("party %d received %v from %d in round %d inside the crash window",
					i, rec.sym, rec.from, rec.round)
			}
		}
	}
	// After restart the crashed party's symbols flow again: the send
	// pattern never emits silence on round+id+to ≡ 0 (mod 3) misses only
	// some slots, so just assert at least one non-silent delivery from the
	// crashed party after the window.
	resumed := false
	for i, ep := range eps {
		if i == crashed {
			continue
		}
		for _, rec := range ep.received {
			if int(rec.from) == crashed && rec.round >= wf.crashEnd[crashed] && rec.sym != bitstring.Silence {
				resumed = true
			}
		}
	}
	if !resumed {
		t.Fatal("crashed party never resumed sending after its window")
	}
	if eng.Metrics().Net.Erasures == 0 {
		t.Fatal("crash window recorded no erasures")
	}
}

// TestTimedDeterministicReplay: a faulty timed run is a pure function of
// its seeds — two engines with identical configuration produce identical
// deliveries and metrics, including under delay spikes and outages.
func TestTimedDeterministicReplay(t *testing.T) {
	g := graph.Clique(5)
	const rounds = 60
	spec := FaultSchedule{Seed: 9, OutageRate: 0.02, SpikeRate: 0.05, Stragglers: 1}
	run := func() (*Engine, []*echoParty) {
		wf, err := spec.Wire(5, rounds)
		if err != nil {
			t.Fatal(err)
		}
		ps, eps := mkParties(5, cliqueFns(5))
		eng, _ := NewEngine(g, ps, nil, nil)
		eng.SetTiming(FixedJitter{Base: 0.4, Jitter: 0.8, Seed: 77}, wf)
		eng.RunRounds(0, rounds)
		return eng, eps
	}
	engA, epsA := run()
	engB, epsB := run()
	mA, mB := engA.Metrics(), engB.Metrics()
	if mA.CC != mB.CC || mA.Corruptions != mB.Corruptions {
		t.Fatalf("metrics differ across replays: %+v vs %+v", mA, mB)
	}
	if mA.Net.Makespan != mB.Net.Makespan ||
		mA.Net.LateSymbols != mB.Net.LateSymbols ||
		mA.Net.LateDelivered != mB.Net.LateDelivered ||
		mA.Net.LateDropped != mB.Net.LateDropped ||
		mA.Net.Erasures != mB.Net.Erasures {
		t.Fatalf("NetStats differ across replays: %+v vs %+v", mA.Net, mB.Net)
	}
	for i := range epsA {
		a, b := epsA[i].received, epsB[i].received
		if len(a) != len(b) {
			t.Fatalf("party %d received %d vs %d deliveries", i, len(a), len(b))
		}
		for j := range a {
			if a[j] != b[j] {
				t.Fatalf("party %d delivery %d differs", i, j)
			}
		}
	}
	// The jittery faulty run should actually exercise the machinery.
	if mA.Net.LateSymbols == 0 {
		t.Fatal("jitter past the deadline produced no late symbols")
	}
	if mA.Net.MaxP99() <= 0 {
		t.Fatal("delay histogram recorded nothing")
	}
}

// TestDelayModelsShape sanity-checks the seed models' ranges: jitter in
// [Base, Base+Jitter), lognormal positive with median roughly Median,
// bands constant per link.
func TestDelayModelsShape(t *testing.T) {
	l := channel.Link{From: 0, To: 1}
	j := FixedJitter{Base: 0.3, Jitter: 0.4, Seed: 1}
	for r := 0; r < 200; r++ {
		d := j.Delay(r, l)
		if d < 0.3 || d >= 0.7 {
			t.Fatalf("jitter delay %g outside [0.3, 0.7)", d)
		}
	}
	ln := Lognormal{Median: 0.5, Sigma: 0.25, Seed: 1}
	below := 0
	for r := 0; r < 400; r++ {
		d := ln.Delay(r, l)
		if d <= 0 {
			t.Fatalf("lognormal delay %g not positive", d)
		}
		if d < 0.5 {
			below++
		}
	}
	if below < 120 || below > 280 {
		t.Fatalf("lognormal median off: %d/400 draws below the median", below)
	}
	b := Bands{Bands: []Band{{Fraction: 0.5, Base: 0.2, Jitter: 0}, {Fraction: 0.5, Base: 0.8, Jitter: 0}}, Seed: 3}
	for _, link := range []channel.Link{{From: 0, To: 1}, {From: 1, To: 0}, {From: 2, To: 3}} {
		d0 := b.Delay(0, link)
		for r := 1; r < 50; r++ {
			if b.Delay(r, link) != d0 {
				t.Fatalf("band assignment of link %v drifted across rounds", link)
			}
		}
		if d0 != 0.2 && d0 != 0.8 {
			t.Fatalf("band delay %g is neither band", d0)
		}
	}
	if math.Abs(Unit{}.Delay(0, l)-1.0) > 0 {
		t.Fatal("unit delay is not 1")
	}
}

// TestFaultScheduleValidate rejects malformed schedules.
func TestFaultScheduleValidate(t *testing.T) {
	bad := []FaultSchedule{
		{OutageRate: -0.1},
		{OutageRate: 1.5},
		{SpikeRate: 2},
		{OutageLen: -1},
		{SpikeDelay: -1},
		{Stragglers: -1},
		{Crashes: -2},
	}
	for i, f := range bad {
		if err := f.Validate(); err == nil {
			t.Errorf("case %d: malformed schedule %+v accepted", i, f)
		}
	}
	nonFinite := []FaultSchedule{
		{SpikeRate: math.NaN()},
		{OutageRate: math.NaN()},
		{OutageRate: math.Inf(1)},
		{SpikeRate: 0.01, SpikeDelay: math.NaN()},
		{SpikeDelay: math.Inf(1)},
		{Stragglers: 1, StragglerDelay: math.Inf(-1)},
	}
	for i, f := range nonFinite {
		var nf *NonFiniteError
		if err := f.Validate(); !errors.As(err, &nf) {
			t.Errorf("non-finite case %d: %+v: error %v, want *NonFiniteError", i, f, err)
		}
	}
	good := FaultSchedule{OutageRate: 0.5, SpikeRate: 0.1, Stragglers: 1, Crashes: 1}
	if err := good.Validate(); err != nil {
		t.Errorf("valid schedule rejected: %v", err)
	}
}

// TestNonFiniteDelayFloored: a custom model that returns NaN, zero or a
// negative delay cannot wedge the event heap. The DES step floors such
// delays at 1e-3, so those symbols are on time, and a genuinely late
// symbol behind them still lands.
func TestNonFiniteDelayFloored(t *testing.T) {
	g := graph.Line(2)
	ps, eps := mkParties(2, map[int]func(int, graph.Node) bitstring.Symbol{
		0: func(r int, to graph.Node) bitstring.Symbol {
			if r <= 3 {
				return bitstring.Sym1
			}
			return bitstring.Silence
		},
	})
	eng, _ := NewEngine(g, ps, nil, nil)
	eng.SetTiming(scriptDelay{d: func(r int, l channel.Link) float64 {
		switch r {
		case 0:
			return math.NaN()
		case 1:
			return 0
		case 2:
			return -3
		}
		return 1.5 // round 3: late, lands in round 4's silent slot
	}}, nil)
	eng.RunRounds(0, 6)

	m := eng.Metrics()
	if m.Net.LateSymbols != 1 || m.Net.LateDelivered != 1 {
		t.Fatalf("late=%d delivered=%d, want 1/1", m.Net.LateSymbols, m.Net.LateDelivered)
	}
	h := m.Net.Links[0].Hist
	if math.IsNaN(h.Sum) || h.Count != 4 {
		t.Fatalf("delay histogram %+v: want 4 finite observations", h)
	}
	want := []bitstring.Symbol{bitstring.Sym1, bitstring.Sym1, bitstring.Sym1, bitstring.Silence, bitstring.Sym1, bitstring.Silence}
	var got []bitstring.Symbol
	for _, r := range eps[1].received {
		if r.from == 0 {
			got = append(got, r.sym)
		}
	}
	for i, w := range want {
		if got[i] != w {
			t.Fatalf("party 1 round %d received %v, want %v (all: %v)", i, got[i], w, got)
		}
	}
}
