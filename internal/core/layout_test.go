package core

import (
	"testing"

	"mpic/internal/trace"
)

func mkLayout() *layout {
	return &layout{
		exchangeRounds: 10,
		mpRounds:       24,
		flagRounds:     6,
		simRounds:      31,
		rewindRounds:   5,
		iters:          3,
	}
}

func TestLayoutTotals(t *testing.T) {
	l := mkLayout()
	if got := l.iterRounds(); got != 66 {
		t.Errorf("iterRounds = %d, want 66", got)
	}
	if got := l.totalRounds(); got != 10+3*66 {
		t.Errorf("totalRounds = %d, want %d", got, 10+3*66)
	}
	if got := l.iterStart(2); got != 10+2*66 {
		t.Errorf("iterStart(2) = %d, want %d", got, 10+2*66)
	}
}

func TestLayoutPhaseAt(t *testing.T) {
	l := mkLayout()
	tests := []struct {
		round    int
		wantIter int
		wantPh   trace.Phase
		wantRel  int
	}{
		{0, 0, trace.PhaseExchange, 0},
		{9, 0, trace.PhaseExchange, 9},
		{10, 0, trace.PhaseMeetingPoints, 0},
		{33, 0, trace.PhaseMeetingPoints, 23},
		{34, 0, trace.PhaseFlagPassing, 0},
		{39, 0, trace.PhaseFlagPassing, 5},
		{40, 0, trace.PhaseSimulation, 0},
		{70, 0, trace.PhaseSimulation, 30},
		{71, 0, trace.PhaseRewind, 0},
		{75, 0, trace.PhaseRewind, 4},
		{76, 1, trace.PhaseMeetingPoints, 0},
		{10 + 2*66, 2, trace.PhaseMeetingPoints, 0},
	}
	for _, tt := range tests {
		iter, ph, rel := l.phaseAt(tt.round)
		if iter != tt.wantIter || ph != tt.wantPh || rel != tt.wantRel {
			t.Errorf("phaseAt(%d) = (%d,%v,%d), want (%d,%v,%d)",
				tt.round, iter, ph, rel, tt.wantIter, tt.wantPh, tt.wantRel)
		}
	}
}

// TestLayoutPhaseCoverage: every round of an iteration belongs to exactly
// one phase, phases come in order, and relative offsets reset at phase
// boundaries.
func TestLayoutPhaseCoverage(t *testing.T) {
	l := mkLayout()
	counts := map[trace.Phase]int{}
	for r := l.exchangeRounds; r < l.exchangeRounds+l.iterRounds(); r++ {
		_, ph, rel := l.phaseAt(r)
		if rel != counts[ph] {
			t.Fatalf("round %d: rel %d, want %d for %v", r, rel, counts[ph], ph)
		}
		counts[ph]++
	}
	if counts[trace.PhaseMeetingPoints] != l.mpRounds ||
		counts[trace.PhaseFlagPassing] != l.flagRounds ||
		counts[trace.PhaseSimulation] != l.simRounds ||
		counts[trace.PhaseRewind] != l.rewindRounds {
		t.Fatalf("phase round counts wrong: %v", counts)
	}
}

func TestLayoutNoFlagNoRewind(t *testing.T) {
	l := &layout{mpRounds: 6, simRounds: 4, iters: 2}
	// With flag and rewind ablated, simulation follows meeting points
	// directly.
	_, ph, rel := l.phaseAt(6)
	if ph != trace.PhaseSimulation || rel != 0 {
		t.Fatalf("phaseAt(6) = (%v,%d), want simulation start", ph, rel)
	}
	// The last simulation round ends the iteration.
	_, ph, rel = l.phaseAt(9)
	if ph != trace.PhaseSimulation || rel != l.simRounds-1 {
		t.Fatalf("phaseAt(9) = (%v,%d), want the last simulation round", ph, rel)
	}
	_, ph, _ = l.phaseAt(10)
	if ph != trace.PhaseMeetingPoints {
		t.Fatal("second iteration should start at meeting points")
	}
}
