package faults

import (
	"fmt"
	"sync"
)

// Store is the minimal persistence contract FaultyStore decorates —
// structurally identical to mpic.GridStore with the cell type abstracted
// away, so *mpic.FileGridStore (and any other GridStore) satisfies
// Store[mpic.StoredCell] without this package importing mpic.
type Store[C any] interface {
	Load(spec string) ([]C, error)
	Save(spec string, cells []C) error
}

// InjectedError is the error a FaultyStore returns for an injected I/O
// failure. It is a distinct type so tests can tell injected faults from
// real ones.
type InjectedError struct {
	// Op is the operation that failed ("save" or "load").
	Op string
	// Seq is the operation's 0-based ordinal within its op stream.
	Seq uint64
}

// Error implements error.
func (e *InjectedError) Error() string {
	return fmt.Sprintf("faults: injected %s error (op #%d)", e.Op, e.Seq)
}

// StoreFaults parameterizes a FaultyStore's fault schedule. All
// decisions are deterministic in (Seed, op kind, op ordinal).
type StoreFaults struct {
	// Seed drives every decision.
	Seed int64
	// SaveErrorRate and LoadErrorRate are the probabilities that a Save
	// or Load fails with an InjectedError before touching the inner
	// store.
	SaveErrorRate, LoadErrorRate float64
	// TornRate is the probability that a Save, after the inner store
	// reports success, invokes Tear — simulating a write the caller
	// believes durable that in fact left corrupt bytes behind.
	TornRate float64
}

// StoreStats counts the faults a FaultyStore actually injected.
type StoreStats struct {
	// Saves and Loads count operations that reached the decision point.
	Saves, Loads uint64
	// SaveErrors and LoadErrors count injected failures.
	SaveErrors, LoadErrors uint64
	// Tears counts torn writes (Tear invocations).
	Tears uint64
}

// FaultyStore decorates an inner Store with the failure modes of
// StoreFaults. It is safe for concurrent use (operation ordinals are
// assigned under a lock); note that under concurrency the assignment of
// ordinals to operations follows scheduling, so per-operation outcomes
// are deterministic given an operation order, not across reorderings —
// the engine serializes its Save calls, which is the case that matters.
type FaultyStore[C any] struct {
	// Inner is the decorated store.
	Inner Store[C]
	// Faults is the fault schedule.
	Faults StoreFaults
	// Tear, when non-nil, corrupts the persisted state of the inner
	// store (e.g. truncate a journal inside its final record). Invoked for
	// torn-write faults after a successful inner Save; the Save still
	// reports success, exactly like a real torn write.
	Tear func() error

	mu    sync.Mutex
	stats StoreStats
}

// NewFaultyStore decorates inner with the given fault schedule.
func NewFaultyStore[C any](inner Store[C], f StoreFaults) *FaultyStore[C] {
	return &FaultyStore[C]{Inner: inner, Faults: f}
}

// Stats returns a snapshot of the injected-fault counters.
func (s *FaultyStore[C]) Stats() StoreStats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.stats
}

// Load implements Store, injecting errors per the schedule.
func (s *FaultyStore[C]) Load(spec string) ([]C, error) {
	s.mu.Lock()
	seq := s.stats.Loads
	s.stats.Loads++
	fail := Roll(s.Faults.Seed, "load-error", seq) < s.Faults.LoadErrorRate
	if fail {
		s.stats.LoadErrors++
	}
	s.mu.Unlock()
	if fail {
		return nil, &InjectedError{Op: "load", Seq: seq}
	}
	return s.Inner.Load(spec)
}

// Save implements Store: an injected error fires before the inner write
// (the caller sees a failed, side-effect-free Save); a torn write fires
// after a successful inner write and still reports success.
func (s *FaultyStore[C]) Save(spec string, cells []C) error {
	s.mu.Lock()
	seq := s.stats.Saves
	s.stats.Saves++
	fail := Roll(s.Faults.Seed, "save-error", seq) < s.Faults.SaveErrorRate
	torn := !fail && s.Tear != nil && Roll(s.Faults.Seed, "torn-write", seq) < s.Faults.TornRate
	if fail {
		s.stats.SaveErrors++
	}
	s.mu.Unlock()
	if fail {
		return &InjectedError{Op: "save", Seq: seq}
	}
	if err := s.Inner.Save(spec, cells); err != nil {
		return err
	}
	if torn {
		s.mu.Lock()
		s.stats.Tears++
		s.mu.Unlock()
		if err := s.Tear(); err != nil {
			return fmt.Errorf("faults: tearing store state: %w", err)
		}
	}
	return nil
}
