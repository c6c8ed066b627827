// Package trace collects the accounting every experiment reads off a run:
// communication per phase, corruption counts by kind, hash-collision
// oracle counts, and per-iteration snapshots when requested.
package trace

import "mpic/internal/channel"

// Phase identifies which part of the coding scheme a round belongs to.
type Phase int

const (
	// PhaseExchange is the randomness-exchange preamble (Algorithm 5).
	PhaseExchange Phase = iota
	// PhaseMeetingPoints is the consistency-check phase.
	PhaseMeetingPoints
	// PhaseFlagPassing is the spanning-tree flag phase (Algorithm 3).
	PhaseFlagPassing
	// PhaseSimulation is the chunk-simulation phase.
	PhaseSimulation
	// PhaseRewind is the rewind-request phase.
	PhaseRewind
	// NumPhases is the number of distinct phases.
	NumPhases
)

// String implements fmt.Stringer.
func (p Phase) String() string {
	switch p {
	case PhaseExchange:
		return "exchange"
	case PhaseMeetingPoints:
		return "meeting-points"
	case PhaseFlagPassing:
		return "flag-passing"
	case PhaseSimulation:
		return "simulation"
	case PhaseRewind:
		return "rewind"
	default:
		return "unknown"
	}
}

// Metrics accumulates counters over one run. The zero value is ready to
// use.
type Metrics struct {
	// CC is the total number of symbols transmitted by parties (the
	// paper's communication complexity; insertions do not count).
	CC int64
	// CCPhase breaks CC down by phase.
	CCPhase [NumPhases]int64
	// Rounds is the number of network rounds executed.
	Rounds int
	// Corruptions counts noise events by kind (substitution, deletion,
	// insertion — indexed by channel.Kind).
	Corruptions [4]int64
	// HashCollisions counts oracle-detected true hash collisions: hash
	// comparisons that matched while the underlying transcripts differed.
	HashCollisions int64
	// HashComparisons counts all oracle-checked hash comparisons.
	HashComparisons int64
	// Iterations is the number of scheme iterations executed.
	Iterations int
	// IdleIterations counts iterations where the network flag was "idle".
	IdleIterations int
	// Net holds the virtual-time accounting of a timed run (delay
	// distributions, makespan, late-symbol counts); nil for lockstep
	// runs, so the zero Metrics value — and every result pinned before
	// virtual time existed — is unchanged.
	Net *NetStats `json:",omitempty"`
}

// NetStats is the virtual-time accounting of a timed run — present on
// Metrics only when the network executed under a delay model (see
// internal/network's DES core); lockstep runs leave Net nil, so every
// pre-existing fixed-seed pin sees an unchanged Metrics value.
type NetStats struct {
	// Makespan is the virtual time at which the last executed round
	// closed, in round-periods. Under the unit model it equals Rounds;
	// under heavy-tailed delay models it is the wall-clock story the
	// round counter cannot tell.
	Makespan float64
	// LateSymbols counts symbols that missed their round deadline — each
	// was recorded as a deletion at the deadline (the paper's insdel
	// mapping of a timing fault).
	LateSymbols int64
	// LateDelivered counts late symbols that later landed in a silent
	// slot and were recorded as out-of-band insertions.
	LateDelivered int64
	// LateDropped counts late symbols that found their slot occupied (or
	// their receiver crashed) when they arrived and were discarded; their
	// deadline deletion is their only trace.
	LateDropped int64
	// Erasures counts symbols erased in transit by the fault schedule —
	// link outages and crashed endpoints — each recorded as a deletion.
	Erasures int64
	// Links holds one delay histogram per directed link, in the engine's
	// deterministic link order.
	Links []LinkDelay `json:",omitempty"`
}

// LinkDelay is one directed link's flight-delay distribution.
type LinkDelay struct {
	// From and To identify the directed link (party indices).
	From, To int
	// Hist is the delay histogram; quantiles via Hist.Quantile.
	Hist DelayHist
}

// delayHistBuckets and delayHistWidth size the fixed delay histogram:
// 64 linear buckets of 1/16 round cover flight times up to 4 rounds
// (anything beyond lands in the open-ended last bucket). Memory per
// link is constant, so per-link stats never scale with run length.
const (
	delayHistBuckets = 64
	delayHistWidth   = 1.0 / 16
)

// DelayHist is a fixed-size histogram of per-symbol flight delays,
// measured in round-periods. The zero value is ready to use.
type DelayHist struct {
	// Count, Sum, and Max summarize all observed delays exactly.
	Count int64
	Sum   float64
	Max   float64
	// Buckets[i] counts delays in [i/16, (i+1)/16) rounds; the last
	// bucket is open-ended.
	Buckets [delayHistBuckets]int64
}

// Observe records one flight delay.
func (h *DelayHist) Observe(d float64) {
	h.Count++
	h.Sum += d
	if d > h.Max {
		h.Max = d
	}
	// Clamp in float before converting: int() of a quotient past ~9.2e18
	// (a delay past ~5.8e17 rounds, or +Inf) overflows and would file
	// the delay in bucket 0.
	i := 0
	switch x := d / delayHistWidth; {
	case x >= delayHistBuckets-1:
		i = delayHistBuckets - 1
	case x > 0:
		i = int(x)
	}
	h.Buckets[i]++
}

// Mean returns the exact mean delay (0 for an empty histogram).
func (h *DelayHist) Mean() float64 {
	if h.Count == 0 {
		return 0
	}
	return h.Sum / float64(h.Count)
}

// Quantile returns the q-quantile (q in [0,1]) at bucket resolution: the
// midpoint of the bucket holding the q-th observation, clamped to the
// exact Max so the tail never overshoots reality. Returns 0 for an empty
// histogram.
func (h *DelayHist) Quantile(q float64) float64 {
	if h.Count == 0 {
		return 0
	}
	rank := int64(q * float64(h.Count))
	if rank >= h.Count {
		rank = h.Count - 1
	}
	var seen int64
	for i, c := range h.Buckets {
		seen += c
		if seen > rank {
			mid := (float64(i) + 0.5) * delayHistWidth
			if mid > h.Max {
				return h.Max
			}
			return mid
		}
	}
	return h.Max
}

// P50 is the median flight delay.
func (h *DelayHist) P50() float64 { return h.Quantile(0.50) }

// P99 is the 99th-percentile flight delay.
func (h *DelayHist) P99() float64 { return h.Quantile(0.99) }

// MaxP99 returns the worst per-link p99 delay — the one-number summary
// CLIs print.
func (s *NetStats) MaxP99() float64 {
	worst := 0.0
	for i := range s.Links {
		if p := s.Links[i].Hist.P99(); p > worst {
			worst = p
		}
	}
	return worst
}

// TotalCorruptions returns the number of corrupted transmissions.
func (m *Metrics) TotalCorruptions() int64 {
	return m.Corruptions[channel.KindSubstitution] +
		m.Corruptions[channel.KindDeletion] +
		m.Corruptions[channel.KindInsertion]
}

// NoiseFraction returns corruptions divided by CC, the paper's noise
// fraction µ. Returns 0 for an empty run.
func (m *Metrics) NoiseFraction() float64 {
	if m.CC == 0 {
		return 0
	}
	return float64(m.TotalCorruptions()) / float64(m.CC)
}

// AddTransmission records one party transmission in the given phase.
func (m *Metrics) AddTransmission(p Phase) {
	m.CC++
	if p >= 0 && p < NumPhases {
		m.CCPhase[p]++
	}
}

// AddCorruption records one noise event.
func (m *Metrics) AddCorruption(k channel.Kind) {
	m.Corruptions[k]++
}
