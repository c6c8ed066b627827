package network

import (
	"fmt"
	"sort"

	"mpic/internal/channel"
	"mpic/internal/detrand"
	"mpic/internal/graph"
)

// FaultSchedule declares network-level faults for a timed run. Every
// decision the schedule makes — is this link in an outage this round,
// does this symbol hit a delay spike, which parties straggle or crash —
// is a pure site-hashed function of Seed and the event's coordinates
// (internal/detrand's Roll/Pick), so a faulty run replays bit-identically
// from its seed at any worker count, exactly like channel noise does.
//
// The zero value of every knob is "off" (or a documented default for the
// shape parameters); a nil *FaultSchedule means no network faults.
type FaultSchedule struct {
	// Seed drives every decision below.
	Seed int64

	// OutageRate is the per-(directed link, round) probability that an
	// outage window opens there; while any window covers a round, every
	// symbol sent on the link is erased in transit (a deletion).
	OutageRate float64
	// OutageLen is each outage window's length in rounds (default 8).
	OutageLen int

	// SpikeRate is the per-(link, round) probability a symbol's flight
	// time gains SpikeDelay extra rounds — a transient latency spike.
	SpikeRate float64
	// SpikeDelay is the spike's extra delay in rounds (default 2).
	SpikeDelay float64

	// Stragglers is the number of straggler parties: every symbol they
	// send carries StragglerDelay extra rounds of flight time. The
	// parties are picked deterministically from Seed.
	Stragglers int
	// StragglerDelay is the stragglers' extra outgoing delay in rounds
	// (default 0.6 — enough to push unit-model symbols past deadlines).
	StragglerDelay float64

	// Crashes is the number of crash-stop/restart parties: each gets one
	// deterministic crash window during which it is silence on all its
	// links, both directions — its outgoing symbols and the symbols
	// addressed to it are erased in transit. The in-process party state
	// is untouched, so on restart the party resumes from its last state
	// and the coding scheme repairs the gap like any other insdel burst:
	// graceful degradation, not abort.
	Crashes int
	// CrashLen is each crash window's length in rounds (default 25).
	CrashLen int
}

// Validate rejects malformed schedules before anything runs. A NaN or
// infinite rate or delay is a *NonFiniteError.
func (f *FaultSchedule) Validate() error {
	for _, p := range []struct {
		name string
		v    float64
	}{
		{"OutageRate", f.OutageRate},
		{"SpikeRate", f.SpikeRate},
		{"SpikeDelay", f.SpikeDelay},
		{"StragglerDelay", f.StragglerDelay},
	} {
		if err := CheckFinite(p.name, p.v); err != nil {
			return err
		}
	}
	if f.OutageRate < 0 || f.OutageRate > 1 {
		return fmt.Errorf("network: OutageRate %g outside [0,1]", f.OutageRate)
	}
	if f.SpikeRate < 0 || f.SpikeRate > 1 {
		return fmt.Errorf("network: SpikeRate %g outside [0,1]", f.SpikeRate)
	}
	if f.OutageLen < 0 || f.CrashLen < 0 {
		return fmt.Errorf("network: negative fault window (OutageLen %d, CrashLen %d)", f.OutageLen, f.CrashLen)
	}
	if f.SpikeDelay < 0 || f.StragglerDelay < 0 {
		return fmt.Errorf("network: negative extra delay (SpikeDelay %g, StragglerDelay %g)", f.SpikeDelay, f.StragglerDelay)
	}
	if f.Stragglers < 0 || f.Crashes < 0 {
		return fmt.Errorf("network: negative party counts (Stragglers %d, Crashes %d)", f.Stragglers, f.Crashes)
	}
	return nil
}

// WiredFaults is a FaultSchedule resolved against a concrete run: party
// count and total rounds are known, so the straggler set and the crash
// windows are materialized. All remaining per-round decisions stay pure
// functions of the seed.
type WiredFaults struct {
	spec           FaultSchedule
	outageLen      int
	spikeDelay     float64
	stragglerDelay float64
	straggler      []bool // per party
	crashStart     []int  // per party; crashEnd[p] ≤ crashStart[p] means no crash
	crashEnd       []int
}

// pickParties deterministically selects count distinct parties out of n:
// the count smallest under a seed-hashed ranking, so the choice is a
// pure function of (seed, site, n).
func pickParties(seed int64, site detrand.Site, n, count int) []bool {
	chosen := make([]bool, n)
	if count <= 0 {
		return chosen
	}
	if count > n {
		count = n
	}
	type ranked struct {
		p    int
		rank float64
	}
	rs := make([]ranked, n)
	for p := 0; p < n; p++ {
		rs[p] = ranked{p: p, rank: detrand.Roll(seed, site, uint64(p))}
	}
	sort.Slice(rs, func(i, j int) bool {
		if rs[i].rank != rs[j].rank {
			return rs[i].rank < rs[j].rank
		}
		return rs[i].p < rs[j].p
	})
	for i := 0; i < count; i++ {
		chosen[rs[i].p] = true
	}
	return chosen
}

// Wire resolves the schedule for a run with n parties over totalRounds
// rounds. Crash windows land in the middle half of the run so the
// randomness-exchange preamble and the closing iterations stay clear of
// the blackout.
func (f *FaultSchedule) Wire(n, totalRounds int) (*WiredFaults, error) {
	if err := f.Validate(); err != nil {
		return nil, err
	}
	w := &WiredFaults{
		spec:           *f,
		outageLen:      f.OutageLen,
		spikeDelay:     f.SpikeDelay,
		stragglerDelay: f.StragglerDelay,
	}
	if w.outageLen <= 0 {
		w.outageLen = 8
	}
	if w.spikeDelay <= 0 {
		w.spikeDelay = 2.0
	}
	if w.stragglerDelay <= 0 {
		w.stragglerDelay = 0.6
	}
	w.straggler = pickParties(f.Seed, siteStraggler, n, f.Stragglers)
	w.crashStart = make([]int, n)
	w.crashEnd = make([]int, n)
	if f.Crashes > 0 {
		crashLen := f.CrashLen
		if crashLen <= 0 {
			crashLen = 25
		}
		if crashLen > totalRounds/2 {
			crashLen = totalRounds / 2
		}
		crashed := pickParties(f.Seed, siteCrash, n, f.Crashes)
		lo := totalRounds / 4
		span := totalRounds*3/4 - crashLen - lo
		if span < 1 {
			span = 1
		}
		for p := 0; p < n; p++ {
			if !crashed[p] || crashLen == 0 {
				continue
			}
			start := lo + detrand.Pick(f.Seed, siteCrashStart, uint64(p), span)
			w.crashStart[p] = start
			w.crashEnd[p] = start + crashLen
		}
	}
	return w, nil
}

// Crashed reports whether party p is inside its crash window at round r.
func (w *WiredFaults) Crashed(p graph.Node, r int) bool {
	i := int(p)
	return w.crashEnd[i] > w.crashStart[i] && r >= w.crashStart[i] && r < w.crashEnd[i]
}

// Straggler reports whether party p is a straggler.
func (w *WiredFaults) Straggler(p graph.Node) bool { return w.straggler[int(p)] }

// outage reports whether the directed link is covered by an outage
// window at round r: a window opens at any round r0 with probability
// OutageRate and covers [r0, r0+outageLen).
func (w *WiredFaults) outage(link channel.Link, r int) bool {
	if w.spec.OutageRate <= 0 {
		return false
	}
	for d := 0; d < w.outageLen && d <= r; d++ {
		if detrand.Roll(w.spec.Seed, siteOutage, delayOrd(r-d, link)) < w.spec.OutageRate {
			return true
		}
	}
	return false
}

// Erased reports whether a symbol sent on link in round r is lost in
// transit: the link is in an outage window, or either endpoint is
// crashed.
func (w *WiredFaults) Erased(link channel.Link, r int) bool {
	return w.outage(link, r) || w.Crashed(link.From, r) || w.Crashed(link.To, r)
}

// ExtraDelay returns the fault schedule's additive flight delay for a
// symbol sent on link in round r: a straggler sender's constant lag plus
// any transient spike.
func (w *WiredFaults) ExtraDelay(link channel.Link, r int) float64 {
	extra := 0.0
	if w.straggler[int(link.From)] {
		extra += w.stragglerDelay
	}
	if w.spec.SpikeRate > 0 &&
		detrand.Roll(w.spec.Seed, siteSpike, delayOrd(r, link)) < w.spec.SpikeRate {
		extra += w.spikeDelay
	}
	return extra
}
