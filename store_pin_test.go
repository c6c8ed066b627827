package mpic_test

import (
	"context"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"fmt"
	"path/filepath"
	"sort"
	"testing"

	"mpic"
	"mpic/internal/gridspec"
)

// storePinGrid is the round-trip pin's grid: 24 KeepResults cells over
// n × scheme × rate × delay, half of them on the virtual-time engine
// with delay spikes, so every StoredResult field a store must carry —
// NetStats and each link's DelayHist included — is exercised.
func storePinGrid(t *testing.T) mpic.Grid {
	t.Helper()
	g, err := gridspec.Grid{
		Topology: "line", Workload: "random", Rounds: 30, Noise: "random",
		N: "4,5", Schemes: "A,1", Rates: "0,0.002,0.004",
		Delay: "unit,jitter:0.8", NetFaults: "spike=0.05",
		Trials: 1, Seed: 5, IterFactor: 10,
	}.Build()
	if err != nil {
		t.Fatal(err)
	}
	g.KeepResults = true
	return g
}

// storeDigest hashes canonical JSON of the loaded cells and the restored
// grid results, both sorted by cell index, so the digest is independent
// of completion order and of the store's on-disk format.
func storeDigest(t *testing.T, cells []mpic.StoredCell, restored []mpic.GridCellResult) string {
	t.Helper()
	cells = append([]mpic.StoredCell(nil), cells...)
	sort.Slice(cells, func(i, j int) bool { return cells[i].Index < cells[j].Index })
	restored = append([]mpic.GridCellResult(nil), restored...)
	sort.Slice(restored, func(i, j int) bool { return restored[i].Index < restored[j].Index })
	links := 0
	for _, r := range restored {
		if !r.Restored || r.Err != nil {
			t.Fatalf("cell %d was not restored cleanly (restored=%t, err=%v)", r.Index, r.Restored, r.Err)
		}
		for _, res := range r.Results {
			if res.Metrics.Net != nil {
				links += len(res.Metrics.Net.Links)
			}
		}
	}
	if links == 0 {
		t.Fatal("no restored trial carries a link delay histogram; the pin covers no DES cell")
	}
	h := sha256.New()
	for _, v := range []any{cells, restored} {
		data, err := json.Marshal(v)
		if err != nil {
			t.Fatal(err)
		}
		h.Write(data)
	}
	return fmt.Sprintf("%x", h.Sum(nil))
}

// TestStoreRoundTripPinned pins what the session store hands back, not
// how it lays it out on disk: a FileGridStore session cancelled a third
// of the way through, resumed, reloaded and restored by RunGrid. Any
// change to the store's format must keep the digest.
func TestStoreRoundTripPinned(t *testing.T) {
	const want = "faf1ac351f96d843c7ab55d078457685ccfa799750fd9db4838458418b293f67"
	runner := mpic.NewRunner()
	defer runner.Close()
	restore := func(g mpic.Grid, store mpic.GridStore) []mpic.GridCellResult {
		g.Store = store
		got, err := runner.CollectGrid(context.Background(), g)
		if err != nil {
			t.Fatal(err)
		}
		return got
	}

	// Cancel a third of the way through, resume, reload.
	path := filepath.Join(t.TempDir(), "pin.json")
	grid := storePinGrid(t)
	grid.Workers = 2
	grid.Store = mpic.NewFileGridStore(path)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	streamed := 0
	err := runner.RunGrid(ctx, grid, func(mpic.GridCellResult) {
		if streamed++; streamed == len(grid.Cells)/3 {
			cancel()
		}
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled pass returned %v, want context.Canceled", err)
	}
	restore(storePinGrid(t), mpic.NewFileGridStore(path))
	loaded, err := mpic.NewFileGridStore(path).Load(grid.Spec)
	if err != nil {
		t.Fatal(err)
	}
	if len(loaded) != len(grid.Cells) {
		t.Fatalf("resumed session holds %d cells, want %d", len(loaded), len(grid.Cells))
	}
	if got := storeDigest(t, loaded, restore(storePinGrid(t), mpic.NewFileGridStore(path))); got != want {
		t.Errorf("file-store round-trip digest = %s, want %s", got, want)
	}
}
