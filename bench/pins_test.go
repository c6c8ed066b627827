package main

import (
	"strings"
	"testing"
)

// TestFlippedPinIsCaught runs the first pinned ops of a workload against
// the real pins and against a copy with one pin altered.
func TestFlippedPinIsCaught(t *testing.T) {
	pins, err := loadPins("scenario-lockstep")
	if err != nil {
		t.Fatal(err)
	}
	if len(pins) != 2400 {
		t.Fatalf("scenario-lockstep has %d pins, want 2400", len(pins))
	}
	flipped := append([]string(nil), pins...)
	flipped[1] = strings.Repeat("0", 16)

	d := newScenarioSystem(config{seed: defaultSeed}, false)
	defer d.close()
	if err := d.setup(); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		pins       []string
		wantFailed int
	}{{pins, 0}, {flipped, 1}} {
		st, err := measure(d, newPhase(0, 3, c.pins, nil), nil)
		if err != nil {
			t.Fatal(err)
		}
		if st.ops != 3 || st.failed != c.wantFailed {
			t.Errorf("ran %d ops with %d failed, want 3 with %d failed (%v)", st.ops, st.failed, c.wantFailed, st.errs)
		}
	}
}

// TestRepeatedInputMustReproduce checks the determinism check a second
// run of one input gets: a different hash for a pin index already seen
// fails the op.
func TestRepeatedInputMustReproduce(t *testing.T) {
	ph := newPhase(0, 0, nil, nil)
	ph.done(7, 0, "aaaa", nil)
	ph.done(7, 0, "aaaa", nil)
	if ph.failed != 0 {
		t.Fatalf("identical repeat failed: %v", ph.errs)
	}
	ph.done(7, 0, "bbbb", nil)
	if ph.failed != 1 {
		t.Fatalf("differing repeat not caught")
	}
}
