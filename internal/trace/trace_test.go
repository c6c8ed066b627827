package trace

import (
	"math"
	"testing"

	"mpic/internal/channel"
)

func TestMetricsAccounting(t *testing.T) {
	var m Metrics
	m.AddTransmission(PhaseSimulation)
	m.AddTransmission(PhaseSimulation)
	m.AddTransmission(PhaseRewind)
	m.AddTransmission(Phase(-1)) // unattributed still counts toward CC
	if m.CC != 4 {
		t.Errorf("CC = %d, want 4", m.CC)
	}
	if m.CCPhase[PhaseSimulation] != 2 || m.CCPhase[PhaseRewind] != 1 {
		t.Error("phase attribution wrong")
	}
	m.AddCorruption(channel.KindDeletion)
	m.AddCorruption(channel.KindInsertion)
	m.AddCorruption(channel.KindSubstitution)
	if m.TotalCorruptions() != 3 {
		t.Errorf("TotalCorruptions = %d, want 3", m.TotalCorruptions())
	}
	if got := m.NoiseFraction(); got != 0.75 {
		t.Errorf("NoiseFraction = %f, want 0.75", got)
	}
}

func TestNoiseFractionEmptyRun(t *testing.T) {
	var m Metrics
	if m.NoiseFraction() != 0 {
		t.Error("empty run should have zero noise fraction")
	}
}

func TestDelayHist(t *testing.T) {
	var h DelayHist
	if h.Mean() != 0 || h.Quantile(0.5) != 0 {
		t.Error("empty histogram should read as zero")
	}
	// 99 delays at 0.5 and one straggler at 2.0.
	for i := 0; i < 99; i++ {
		h.Observe(0.5)
	}
	h.Observe(2.0)
	if h.Count != 100 {
		t.Fatalf("Count = %d, want 100", h.Count)
	}
	if got, want := h.Mean(), (99*0.5+2.0)/100; got != want {
		t.Errorf("Mean = %g, want %g", got, want)
	}
	if h.Max != 2.0 {
		t.Errorf("Max = %g, want 2", h.Max)
	}
	// p50 lands in the [0.5, 0.5625) bucket → midpoint 0.53125.
	if got := h.P50(); got < 0.5 || got >= 0.5625 {
		t.Errorf("P50 = %g, want inside [0.5, 0.5625)", got)
	}
	// p99 is the 99th observation — the straggler's bucket, clamped to Max.
	if got := h.P99(); got != 2.0 {
		t.Errorf("P99 = %g, want 2 (bucket midpoint clamped to Max)", got)
	}
	// Out-of-range observations clamp into the end buckets.
	var wide DelayHist
	wide.Observe(-1)
	wide.Observe(100)
	if wide.Buckets[0] != 1 || wide.Buckets[delayHistBuckets-1] != 1 {
		t.Error("out-of-range delays not clamped into the end buckets")
	}
	// Huge delays overflowed the int conversion and landed in bucket 0.
	var huge DelayHist
	huge.Observe(1e300)
	huge.Observe(math.Inf(1))
	if huge.Buckets[delayHistBuckets-1] != 2 || huge.Buckets[0] != 0 {
		t.Errorf("huge delays filed in %v, want both in the last bucket", huge.Buckets)
	}
	if got := huge.P99(); got < (delayHistBuckets-1)*delayHistWidth {
		t.Errorf("P99 of huge delays = %g, want the open-ended last bucket", got)
	}

	stats := NetStats{Links: []LinkDelay{{From: 0, To: 1, Hist: h}, {From: 1, To: 0}}}
	if stats.MaxP99() != 2.0 {
		t.Errorf("MaxP99 = %g, want 2", stats.MaxP99())
	}
	var empty NetStats
	if empty.MaxP99() != 0 {
		t.Error("MaxP99 of an empty NetStats should be 0")
	}
}

func TestPhaseString(t *testing.T) {
	for p, want := range map[Phase]string{
		PhaseExchange: "exchange", PhaseMeetingPoints: "meeting-points",
		PhaseFlagPassing: "flag-passing", PhaseSimulation: "simulation",
		PhaseRewind: "rewind", Phase(99): "unknown",
	} {
		if p.String() != want {
			t.Errorf("Phase(%d).String() = %q, want %q", p, p.String(), want)
		}
	}
}
