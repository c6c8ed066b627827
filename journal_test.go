package mpic

import (
	"testing"
	"time"
)

// TestDrainedLeaseStoreForgetsState pins the memory bound of a finished
// lease session: once a Claim finds nothing pending, the store keeps no
// replayed cells between calls (a service keeps every session it has
// served), and it still answers every call from the file.
func TestDrainedLeaseStoreForgetsState(t *testing.T) {
	const spec = "drained-spec"
	s := NewDirLeaseStore(t.TempDir())
	for i := 0; i < 2; i++ {
		if err := s.SaveCell(spec, "w", StoredCell{Index: i}); err != nil {
			t.Fatal(err)
		}
	}
	if s.file.j.cells == nil {
		t.Fatal("a live session should keep its replayed cells")
	}
	if _, pending, err := s.Claim(spec, "w", 2, 1, time.Minute); err != nil || pending != 0 {
		t.Fatalf("Claim on a finished grid: pending %d, %v", pending, err)
	}
	cells, err := s.Load(spec)
	if err != nil || len(cells) != 2 {
		t.Fatalf("Load after drain: %d cells, %v", len(cells), err)
	}
	if s.file.j.cells != nil || s.file.j.header != nil {
		t.Error("a drained session kept its replayed state after Load")
	}
	if failed, err := s.Failures(spec); err != nil || len(failed) != 0 {
		t.Fatalf("Failures after drain: %v, %v", failed, err)
	}
}
