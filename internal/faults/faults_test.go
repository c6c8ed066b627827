package faults

import (
	"errors"
	"fmt"
	"testing"

	"mpic/internal/core"
)

// TestRollDeterministic pins the injector's determinism and independence
// contracts: same coordinates, same decision; different seeds, sites, or
// ordinals decorrelate.
func TestRollDeterministic(t *testing.T) {
	if Roll(7, "save-error", 3) != Roll(7, "save-error", 3) {
		t.Fatal("Roll is not deterministic")
	}
	same := 0
	const n = 1000
	for i := uint64(0); i < n; i++ {
		if Roll(7, "save-error", i) == Roll(8, "save-error", i) {
			same++
		}
		if Roll(7, "save-error", i) == Roll(7, "load-error", i) {
			same++
		}
	}
	if same > 0 {
		t.Fatalf("%d collisions across seeds/sites in %d rolls", same, n)
	}
	// Rolls are in [0,1) and roughly uniform.
	sum := 0.0
	for i := uint64(0); i < n; i++ {
		v := Roll(7, "uniformity", i)
		if v < 0 || v >= 1 {
			t.Fatalf("Roll out of range: %g", v)
		}
		sum += v
	}
	if mean := sum / n; mean < 0.45 || mean > 0.55 {
		t.Errorf("Roll mean over %d draws = %g, want ≈0.5", n, mean)
	}
	for i := uint64(0); i < 100; i++ {
		if v := Pick(7, "pick", i, 5); v < 0 || v >= 5 {
			t.Fatalf("Pick out of range: %d", v)
		}
	}
}

// memStore is a trivial in-memory Store for decoration tests.
type memStore struct {
	cells []int
	saves int
	torn  bool
}

func (m *memStore) Load(string) ([]int, error) { return m.cells, nil }
func (m *memStore) Save(_ string, cells []int) error {
	m.saves++
	m.cells = append([]int(nil), cells...)
	m.torn = false
	return nil
}

// TestFaultyStoreSchedule pins the decorator's semantics: injected
// errors fire before the inner write, torn writes after a successful one
// (still reporting success), and the whole schedule replays identically
// from the seed.
func TestFaultyStoreSchedule(t *testing.T) {
	run := func() (StoreStats, []string) {
		inner := &memStore{}
		fs := NewFaultyStore[int](inner, StoreFaults{
			Seed:          42,
			SaveErrorRate: 0.3,
			LoadErrorRate: 0.3,
			TornRate:      0.3,
		})
		fs.Tear = func() error { inner.torn = true; return nil }
		var trace []string
		for i := 0; i < 50; i++ {
			savesBefore := inner.saves
			err := fs.Save("s", []int{i})
			var inj *InjectedError
			switch {
			case errors.As(err, &inj):
				if inj.Op != "save" {
					t.Fatalf("save returned %v", inj)
				}
				if inner.saves != savesBefore {
					t.Fatal("injected save error still reached the inner store")
				}
				trace = append(trace, "err")
			case err != nil:
				t.Fatal(err)
			case inner.torn:
				trace = append(trace, "torn")
			default:
				trace = append(trace, "ok")
			}
			if _, err := fs.Load("s"); err != nil {
				if !errors.As(err, &inj) || inj.Op != "load" {
					t.Fatalf("load returned %v", err)
				}
				trace = append(trace, "load-err")
			}
		}
		return fs.Stats(), trace
	}
	st, trace := run()
	if st.SaveErrors == 0 || st.LoadErrors == 0 || st.Tears == 0 {
		t.Fatalf("schedule at rate 0.3 over 50 ops injected nothing in some stream: %+v", st)
	}
	if st2, trace2 := run(); st2 != st || fmt.Sprint(trace2) != fmt.Sprint(trace) {
		t.Errorf("fault schedule is not reproducible from its seed:\n%+v vs %+v", st, st2)
	}
}

// TestCellPlanSchedule pins the per-cell agent: afflicted cells panic on
// exactly their scheduled number of leading attempts and then run clean,
// and the schedule is a pure function of (seed, cell).
func TestCellPlanSchedule(t *testing.T) {
	plan := CellPlan{Seed: 11, PanicRate: 0.5, MaxPanics: 2}
	afflicted, clean := 0, 0
	for cell := 0; cell < 40; cell++ {
		want := plan.Panics(cell)
		if want != plan.Panics(cell) {
			t.Fatal("Panics is not deterministic")
		}
		if want == 0 {
			clean++
		} else {
			afflicted++
		}
		if want > 2 {
			t.Fatalf("cell %d scheduled %d panics, above MaxPanics", cell, want)
		}
		agent := plan.Observer(cell)
		panics := 0
		// Each "attempt" runs iterations 0..panicIterSpread; a scheduled
		// panic fires once per attempt until the budget is spent.
		for attempt := 0; attempt < want+3; attempt++ {
			func() {
				defer func() {
					if p := recover(); p != nil {
						ip, ok := p.(InjectedPanic)
						if !ok || ip.Cell != cell {
							t.Fatalf("unexpected panic value %v", p)
						}
						panics++
					}
				}()
				for it := 0; it < panicIterSpread; it++ {
					agent.IterationDone(core.IterationStats{Iteration: it})
				}
			}()
		}
		if panics != want {
			t.Errorf("cell %d panicked %d times, scheduled %d", cell, panics, want)
		}
	}
	if afflicted == 0 || clean == 0 {
		t.Fatalf("degenerate schedule: %d afflicted, %d clean", afflicted, clean)
	}
}
