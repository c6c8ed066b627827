package mpic_test

import (
	"math"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"testing"

	"mpic"
)

// probeLinks returns every directed link among n parties, the links the
// fuzzers probe.
func probeLinks(n int) []mpic.Link {
	var links []mpic.Link
	for u := 0; u < n; u++ {
		for v := 0; v < n; v++ {
			if u != v {
				links = append(links, mpic.Link{From: mpic.Node(u), To: mpic.Node(v)})
			}
		}
	}
	return links
}

// FuzzParseDelay feeds CLI delay strings ("name" or "name:param")
// through ParseDelay and checks the contract: the result is an error, or
// a spec whose wired model returns finite positive delays on every
// probed (round, link), and nothing panics. Plain `go test` replays the
// seed corpus in testdata/fuzz/FuzzParseDelay; `make fuzz` explores
// further.
func FuzzParseDelay(f *testing.F) {
	g, err := mpic.NewTopology("clique", 4)
	if err != nil {
		f.Fatal(err)
	}
	links := probeLinks(4)
	f.Fuzz(func(t *testing.T, s string) {
		spec, err := mpic.ParseDelay(s)
		if err != nil || spec == nil {
			return
		}
		model, err := spec.Wire(mpic.DelayEnv{Graph: g, Seed: 7})
		if err != nil {
			return
		}
		for r := 0; r < 64; r++ {
			for _, l := range links {
				if d := model.Delay(r, l); !(d > 0) || math.IsInf(d, 0) {
					t.Fatalf("%q: Delay(%d, %v) = %g, want finite and positive", s, r, l, d)
				}
			}
		}
	})
}

// FuzzParseNetFaults feeds CLI fault strings ("key=value,...") through
// ParseNetFaults and checks the contract: a schedule that parses (and so
// validates) has finite rates and delays, wires without error or panic
// for every party count in 1..8, and answers its per-round queries with
// finite non-negative extra delays. Plain `go test` replays the seed
// corpus in testdata/fuzz/FuzzParseNetFaults.
func FuzzParseNetFaults(f *testing.F) {
	f.Fuzz(func(t *testing.T, s string) {
		nf, err := mpic.ParseNetFaults(s)
		if err != nil || nf == nil {
			return
		}
		for _, v := range []float64{nf.OutageRate, nf.SpikeRate, nf.SpikeDelay, nf.StragglerDelay} {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				t.Fatalf("%q validated with a non-finite field: %+v", s, *nf)
			}
		}
		for n := 1; n <= 8; n++ {
			links := probeLinks(n)
			for _, rounds := range []int{0, 1, 100} {
				w, err := nf.Wire(n, rounds)
				if err != nil {
					t.Fatalf("%q validated but Wire(%d, %d) failed: %v", s, n, rounds, err)
				}
				for r := 0; r < rounds && r < 16; r++ {
					for _, l := range links {
						w.Erased(l, r)
						if x := w.ExtraDelay(l, r); !(x >= 0) || math.IsInf(x, 0) {
							t.Fatalf("%q: ExtraDelay(%v, %d) = %g", s, l, r, x)
						}
					}
				}
			}
		}
	})
}

// fuzzJournalSpec is the spec FuzzJournalLoad reads journals under; the
// seed corpus journals are written under it.
const fuzzJournalSpec = "fuzz-spec"

// FuzzJournalLoad writes arbitrary bytes as a session journal and reads
// it through FileGridStore.Load. The contract: an error or a state,
// never a panic; decoding allocates within a constant multiple of the
// file's size (a length read from the file never sizes an allocation);
// whatever Load cut off as a torn tail stays cut, so a second reader
// agrees without recovering again; and a cell saved after a clean Load
// lands intact, so a reload returns the loaded cells plus that one.
// Plain `go test` replays the seed corpus in testdata/fuzz/FuzzJournalLoad
// and the lease-era journal in testdata.
func FuzzJournalLoad(f *testing.F) {
	leaseEra, err := os.ReadFile(filepath.Join("testdata", "lease-era.journal"))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(leaseEra)
	f.Fuzz(func(t *testing.T, data []byte) {
		path := filepath.Join(t.TempDir(), "journal")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		cells, err := mpic.NewFileGridStore(path).Load(fuzzJournalSpec)
		runtime.ReadMemStats(&after)
		if grown := after.TotalAlloc - before.TotalAlloc; grown > 64*uint64(len(data))+1<<20 {
			t.Fatalf("Load of a %d-byte journal allocated %d bytes", len(data), grown)
		}
		again := mpic.NewFileGridStore(path)
		again.OnRecovery = func(reason error) { t.Fatalf("second Load recovered again: %v", reason) }
		cells2, err2 := again.Load(fuzzJournalSpec)
		if (err == nil) != (err2 == nil) || !reflect.DeepEqual(cells, cells2) {
			t.Fatalf("second Load disagrees: (%d cells, %v) then (%d cells, %v)", len(cells), err, len(cells2), err2)
		}
		if err != nil {
			return
		}
		fresh := mpic.StoredCell{Key: mpic.GridKey{N: 1}, Cell: mpic.SweepCell{N: 1, Trials: 1}}
		for held := true; held; {
			held = false
			for _, c := range cells {
				if c.Index == fresh.Index && c.Key == fresh.Key {
					held = true
					fresh.Index++
				}
			}
		}
		want := append(cells, fresh)
		if err := again.Save(fuzzJournalSpec, want); err != nil {
			t.Fatalf("Save after a clean Load failed: %v", err)
		}
		reloaded := mpic.NewFileGridStore(path)
		reloaded.OnRecovery = func(reason error) { t.Fatalf("reload after a Save recovered: %v", reason) }
		if got, err := reloaded.Load(fuzzJournalSpec); err != nil || !reflect.DeepEqual(got, want) {
			t.Fatalf("reload after a Save: (%d cells, %v), want the %d loaded cells plus the saved one", len(got), err, len(cells))
		}
	})
}
