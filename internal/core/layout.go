package core

import "mpic/internal/trace"

// layout fixes the round counts of every phase. All phase lengths are
// known a priori to every party (Section 3.1: "each phase consists of a
// fixed number of rounds ... there is never ambiguity as to which phase is
// being executed").
type layout struct {
	exchangeRounds int // randomness exchange preamble (0 in CRS mode)
	mpRounds       int // meeting points: 3τ bit-serial hash rounds
	flagRounds     int // flag passing: 2·d(T) − 2 over the BFS tree
	simRounds      int // simulation: 1 (⊥ round) + longest chunk span
	rewindRounds   int // rewind: n rounds (one network crossing)
	iters          int
}

func (l *layout) iterRounds() int {
	return l.mpRounds + l.flagRounds + l.simRounds + l.rewindRounds
}

// totalRounds is the fixed length of the whole noise-resilient protocol.
func (l *layout) totalRounds() int {
	return l.exchangeRounds + l.iters*l.iterRounds()
}

// iterStart returns the first round of iteration it (0-based).
func (l *layout) iterStart(it int) int {
	return l.exchangeRounds + it*l.iterRounds()
}

// phaseAt decomposes an absolute round into (iteration, phase, offset
// within phase). Rounds before the first iteration are the exchange. Run
// walks the phases itself, so phaseAt serves only RunInfo.PhaseOracle,
// the public layout that adaptive adversaries key on.
func (l *layout) phaseAt(round int) (iter int, ph trace.Phase, rel int) {
	if round < l.exchangeRounds {
		return 0, trace.PhaseExchange, round
	}
	r := round - l.exchangeRounds
	iter = r / l.iterRounds()
	rel = r % l.iterRounds()
	switch {
	case rel < l.mpRounds:
		return iter, trace.PhaseMeetingPoints, rel
	case rel < l.mpRounds+l.flagRounds:
		return iter, trace.PhaseFlagPassing, rel - l.mpRounds
	case rel < l.mpRounds+l.flagRounds+l.simRounds:
		return iter, trace.PhaseSimulation, rel - l.mpRounds - l.flagRounds
	default:
		return iter, trace.PhaseRewind, rel - l.mpRounds - l.flagRounds - l.simRounds
	}
}
