package mpic_test

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"mpic"
)

// fakeClock is a manually stepped clock for lease-expiry tests: no
// sleeping, no wall-clock flakiness.
type fakeClock struct {
	mu  sync.Mutex
	now time.Time
}

func newFakeClock() *fakeClock {
	return &fakeClock{now: time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)}
}

func (c *fakeClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.now
}

func (c *fakeClock) Advance(d time.Duration) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.now = c.now.Add(d)
}

// TestLeaseClaimExclusive pins the partition property: two workers
// claiming from the same session never hold the same cell, and the
// pending count includes cells leased to either of them.
func TestLeaseClaimExclusive(t *testing.T) {
	store := mpic.NewDirLeaseStore(t.TempDir())
	clock := newFakeClock()
	store.Clock = clock.Now
	const spec, total = "claim-spec", 6

	a, pending, err := store.Claim(spec, "w-a", total, 4, time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	if len(a) != 4 || pending != total {
		t.Fatalf("worker a claimed %v (pending %d), want 4 cells of %d pending", a, pending, total)
	}
	b, pending, err := store.Claim(spec, "w-b", total, 4, time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	if len(b) != 2 || pending != total {
		t.Fatalf("worker b claimed %v (pending %d), want the 2 leftover cells", b, pending)
	}
	held := map[int]bool{}
	for _, i := range append(append([]int{}, a...), b...) {
		if held[i] {
			t.Fatalf("cell %d leased to both workers", i)
		}
		held[i] = true
	}
	// Everything is leased: a third worker gets nothing but the session
	// is still pending.
	c, pending, err := store.Claim(spec, "w-c", total, 4, time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	if len(c) != 0 || pending != total {
		t.Fatalf("worker c claimed %v (pending %d), want none of %d pending", c, pending, total)
	}
}

// TestLeaseExpiryReclaim pins the crash-recovery path: a worker claims a
// cell and dies (never renews, never releases); once the lease lapses
// the cell is re-leased to a live worker, whose completed result settles
// the session.
func TestLeaseExpiryReclaim(t *testing.T) {
	store := mpic.NewDirLeaseStore(t.TempDir())
	clock := newFakeClock()
	store.Clock = clock.Now
	const spec, total = "expiry-spec", 2
	ttl := 30 * time.Second

	dead, _, err := store.Claim(spec, "w-dead", total, 1, ttl)
	if err != nil {
		t.Fatal(err)
	}
	if len(dead) != 1 {
		t.Fatalf("dead worker claimed %v, want 1 cell", dead)
	}

	// While the lease is live, the survivor gets only the other cell —
	// claimed with a longer TTL, so advancing the clock expires only the
	// dead worker's lease.
	live, _, err := store.Claim(spec, "w-live", total, total, 10*ttl)
	if err != nil {
		t.Fatal(err)
	}
	if len(live) != 1 || live[0] == dead[0] {
		t.Fatalf("live worker claimed %v while %v was leased", live, dead)
	}

	// Past the TTL the dead worker's cell comes back into rotation.
	clock.Advance(ttl + time.Second)
	reclaimed, pending, err := store.Claim(spec, "w-live", total, total, ttl)
	if err != nil {
		t.Fatal(err)
	}
	if len(reclaimed) != 1 || reclaimed[0] != dead[0] {
		t.Fatalf("after expiry claimed %v, want the dead worker's cell %v", reclaimed, dead)
	}
	leases, err := store.Leases(spec)
	if err != nil {
		t.Fatal(err)
	}
	if len(leases) != 2 {
		t.Fatalf("active leases after reclaim: %+v, want both cells leased", leases)
	}
	for _, l := range leases {
		if l.Worker != "w-live" {
			t.Fatalf("lease %+v held by %q, want w-live", l, l.Worker)
		}
	}

	// Completing the cell drops the lease and the pending count.
	if err := store.SaveCell(spec, "w-live", mpic.StoredCell{Index: reclaimed[0]}); err != nil {
		t.Fatal(err)
	}
	_, pending, err = store.Claim(spec, "w-live", total, 0, ttl)
	if err != nil {
		t.Fatal(err)
	}
	if pending != total-1 {
		t.Fatalf("pending %d after one completion, want %d", pending, total-1)
	}
}

// TestLeaseRenewAndRelease pins the liveness half of the protocol:
// renewal pushes expiry out so a slow worker keeps its cells past the
// original TTL, and release returns them immediately.
func TestLeaseRenewAndRelease(t *testing.T) {
	store := mpic.NewDirLeaseStore(t.TempDir())
	clock := newFakeClock()
	store.Clock = clock.Now
	const spec, total = "renew-spec", 1
	ttl := 10 * time.Second

	if _, _, err := store.Claim(spec, "w-slow", total, 1, ttl); err != nil {
		t.Fatal(err)
	}
	clock.Advance(8 * time.Second)
	if err := store.Renew(spec, "w-slow", ttl); err != nil {
		t.Fatal(err)
	}
	clock.Advance(8 * time.Second) // past the original expiry, inside the renewed one
	got, _, err := store.Claim(spec, "w-thief", total, 1, ttl)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 0 {
		t.Fatalf("renewed lease was stolen: %v", got)
	}
	if err := store.Release(spec, "w-slow"); err != nil {
		t.Fatal(err)
	}
	got, _, err = store.Claim(spec, "w-thief", total, 1, ttl)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 {
		t.Fatalf("released cell not claimable: %v", got)
	}
}

// TestLeaseSaveCellDuplicateDropped pins the merge rule that makes lease
// expiry safe under a slow-but-alive worker: when two workers complete
// the same cell, the second result (bit-identical by determinism) is
// dropped, not appended.
func TestLeaseSaveCellDuplicateDropped(t *testing.T) {
	store := mpic.NewDirLeaseStore(t.TempDir())
	const spec = "dup-spec"
	cell := mpic.StoredCell{Index: 3, Cell: mpic.SweepCell{N: 4, Trials: 2, Successes: 2}}
	if err := store.SaveCell(spec, "w-a", cell); err != nil {
		t.Fatal(err)
	}
	if err := store.SaveCell(spec, "w-b", cell); err != nil {
		t.Fatal(err)
	}
	cells, err := store.Load(spec)
	if err != nil {
		t.Fatal(err)
	}
	if len(cells) != 1 {
		t.Fatalf("duplicate completion persisted %d entries, want 1", len(cells))
	}
}

// TestLeaseLedgerSpecMismatch pins the same guard the cell checkpoint
// has: a ledger written under one grid refuses to serve another.
func TestLeaseLedgerSpecMismatch(t *testing.T) {
	store := mpic.NewDirLeaseStore(t.TempDir())
	if _, _, err := store.Claim("grid-one", "w", 2, 1, time.Minute); err != nil {
		t.Fatal(err)
	}
	if _, _, err := store.Claim("grid-two", "w", 2, 1, time.Minute); err == nil ||
		!strings.Contains(err.Error(), "different grid") {
		t.Fatalf("ledger served a different grid: %v", err)
	}
}

// shardGrid is the grid the sharding determinism tests run: big enough
// to spread over several workers, cheap enough for unit tests.
func shardGrid() mpic.Grid {
	return sweep{
		Base:     gridBase(),
		N:        []int{4, 5},
		Schemes:  []mpic.Scheme{mpic.AlgorithmA, mpic.Algorithm1},
		Rates:    []float64{0, 0.002},
		Trials:   2,
		SeedStep: 100,
	}.grid()
}

// TestShardedGridDeterminism is the subsystem's core pin: N in-process
// workers leasing cells from a shared session directory produce a
// merged grid bit-identical to a sequential RunGrid — per-trial results
// included — and the ordinary engine restores the finished session
// without executing anything.
func TestShardedGridDeterminism(t *testing.T) {
	grid := shardGrid()
	grid.KeepResults = true
	runner := mpic.NewRunner()
	defer runner.Close()

	seqGrid := grid
	seqGrid.Workers = 1
	want, err := runner.CollectGrid(context.Background(), seqGrid)
	if err != nil {
		t.Fatal(err)
	}

	store := mpic.NewDirLeaseStore(t.TempDir())
	grid.Spec = "shard-determinism"
	var wg sync.WaitGroup
	errs := make([]error, 3)
	for w := 0; w < len(errs); w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			errs[w] = runner.RunGridSharded(context.Background(), grid, store,
				mpic.ShardOptions{Worker: fmt.Sprintf("w%d", w), LeaseTTL: time.Minute}, nil)
		}(w)
	}
	wg.Wait()
	for w, err := range errs {
		if err != nil {
			t.Fatalf("worker %d: %v", w, err)
		}
	}

	restoreGrid := grid
	restoreGrid.Store = store
	got, err := runner.CollectGrid(context.Background(), restoreGrid)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("sharded session restored %d cells, want %d", len(got), len(want))
	}
	for i := range want {
		if !got[i].Restored {
			t.Errorf("cell %d was re-executed; the sharded session should have held it", i)
		}
		if !reflect.DeepEqual(got[i].Cell, want[i].Cell) {
			t.Errorf("cell %d diverged from sequential run:\n got %+v\nwant %+v", i, got[i].Cell, want[i].Cell)
		}
		if len(got[i].Results) != len(want[i].Results) {
			t.Fatalf("cell %d restored %d trials, want %d", i, len(got[i].Results), len(want[i].Results))
		}
		for j := range want[i].Results {
			if !reflect.DeepEqual(got[i].Results[j].Metrics, want[i].Results[j].Metrics) {
				t.Errorf("cell %d trial %d metrics diverged", i, j)
			}
		}
	}

	// The drained session holds no leases.
	leases, err := store.Leases("shard-determinism")
	if err != nil {
		t.Fatal(err)
	}
	if len(leases) != 0 {
		t.Errorf("finished session still holds leases: %+v", leases)
	}
}

// TestShardedWorkersWakeOnPeerAppend pins the in-process wake-up: two
// workers share a session, the first to claim takes every cell, and the
// other waits with a Poll of an hour, so it can return in time only if
// each of its peer's appends wakes it. Two stores on one directory stand
// in for two processes: no append reaches across them, and the waiting
// worker drains through the Poll fallback. Either way the session is
// bit-identical to a sequential run.
func TestShardedWorkersWakeOnPeerAppend(t *testing.T) {
	grid := sweep{Base: gridBase(), N: []int{4, 5}, Rates: []float64{0, 0.002}, Trials: 1}.grid()
	grid.Spec = "shard-wake"
	runner := mpic.NewRunner()
	defer runner.Close()
	seqGrid := grid
	seqGrid.Workers = 1
	want, err := runner.CollectGrid(context.Background(), seqGrid)
	if err != nil {
		t.Fatal(err)
	}

	for _, tc := range []struct {
		name   string
		shared bool
		poll   time.Duration
	}{
		{"shared store", true, time.Hour},
		{"store per worker", false, 20 * time.Millisecond},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			stores := []*mpic.DirLeaseStore{mpic.NewDirLeaseStore(dir), mpic.NewDirLeaseStore(dir)}
			if tc.shared {
				stores[1] = stores[0]
			}
			start := time.Now()
			ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
			defer cancel()
			var wg sync.WaitGroup
			errs := make([]error, len(stores))
			for w := range stores {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					errs[w] = runner.RunGridSharded(ctx, grid, stores[w], mpic.ShardOptions{
						Worker: fmt.Sprintf("w%d", w), LeaseTTL: time.Minute, Batch: len(grid.Cells), Poll: tc.poll,
					}, nil)
				}(w)
			}
			wg.Wait()
			if took := time.Since(start); took > 30*time.Second {
				t.Errorf("workers took %v to drain the session", took)
			}
			for w, err := range errs {
				if err != nil {
					t.Fatalf("worker %d: %v", w, err)
				}
			}
			restore := grid
			restore.Store = stores[0]
			got, err := runner.CollectGrid(context.Background(), restore)
			if err != nil {
				t.Fatal(err)
			}
			for i := range want {
				if !got[i].Restored || !reflect.DeepEqual(got[i].Cell, want[i].Cell) {
					t.Errorf("cell %d (restored %v) diverged from sequential run:\n got %+v\nwant %+v",
						i, got[i].Restored, got[i].Cell, want[i].Cell)
				}
			}
		})
	}
}

// TestLeaseStoreTornTailRecovery pins DirLeaseStore.OnRecovery: a lease
// journal whose last record was torn mid-append is cut back to its last
// whole record on the next call, the hook hears about it once, and the
// lost claim is re-derived — its cells are pending and claimable again.
func TestLeaseStoreTornTailRecovery(t *testing.T) {
	dir := t.TempDir()
	store := mpic.NewDirLeaseStore(dir)
	var recovered []error
	store.OnRecovery = func(reason error) { recovered = append(recovered, reason) }
	const spec, total = "torn-lease", 3
	if err := store.SaveCell(spec, "w-a", mpic.StoredCell{Index: 0}); err != nil {
		t.Fatal(err)
	}
	if claimed, _, err := store.Claim(spec, "w-a", total, 2, time.Minute); err != nil || len(claimed) != 2 {
		t.Fatalf("claim: %v, %v", claimed, err)
	}
	path := filepath.Join(dir, "journal")
	fi, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(path, fi.Size()-10); err != nil {
		t.Fatal(err)
	}

	claimed, pending, err := store.Claim(spec, "w-b", total, 2, time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(claimed, []int{1, 2}) || pending != 2 {
		t.Errorf("after the torn claim, w-b claimed %v with %d pending; want [1 2] with 2", claimed, pending)
	}
	var corrupt *mpic.CorruptCheckpointError
	if len(recovered) != 1 || !errors.As(recovered[0], &corrupt) || !strings.Contains(recovered[0].Error(), "torn final record") {
		t.Fatalf("OnRecovery calls: %v, want one torn-record report", recovered)
	}
	cells, err := store.Load(spec)
	if err != nil || len(cells) != 1 {
		t.Fatalf("the done cell before the torn claim: %d cells, %v", len(cells), err)
	}
	if len(recovered) != 1 {
		t.Errorf("OnRecovery fired %d times, want once", len(recovered))
	}
}

// TestShardedQuarantine pins the failure semantics: a cell that
// exhausts its retry budget is quarantined in the shared ledger — no
// worker re-claims it, every worker's final error carries the
// session-wide report, and the healthy cells all complete.
func TestShardedQuarantine(t *testing.T) {
	base := gridBase()
	cells := []mpic.GridCell{
		{Scenario: base},
		{Scenario: func() mpic.Scenario {
			sc := base
			sc.Noise = mpic.NoiseFunc("always-fails", func(mpic.NoiseEnv) (mpic.WiredNoise, error) {
				return mpic.WiredNoise{}, errors.New("injected wiring failure")
			})
			return sc
		}()},
		{Scenario: func() mpic.Scenario { sc := base; sc.Seed = 11; return sc }()},
	}
	grid := mpic.Grid{
		Cells:       cells,
		Spec:        "shard-quarantine",
		OnCellError: mpic.QuarantineCells,
		Retry:       mpic.RetryPolicy{MaxAttempts: 2, Sleep: func(time.Duration) {}},
	}
	runner := mpic.NewRunner()
	defer runner.Close()
	store := mpic.NewDirLeaseStore(t.TempDir())

	var wg sync.WaitGroup
	errs := make([]error, 2)
	for w := range errs {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			errs[w] = runner.RunGridSharded(context.Background(), grid, store,
				mpic.ShardOptions{Worker: fmt.Sprintf("w%d", w), LeaseTTL: time.Minute, Poll: 5 * time.Millisecond}, nil)
		}(w)
	}
	wg.Wait()
	for w, err := range errs {
		var gf *mpic.GridFailure
		if !errors.As(err, &gf) {
			t.Fatalf("worker %d returned %v, want *GridFailure", w, err)
		}
		if len(gf.Report.Failed) != 1 || gf.Report.Failed[0].Index != 1 {
			t.Fatalf("worker %d report: %+v, want cell 1 failed", w, gf.Report)
		}
		if gf.Report.Completed != 2 {
			t.Errorf("worker %d reports %d completed, want 2", w, gf.Report.Completed)
		}
		if gf.Report.Failed[0].Attempts != 2 {
			t.Errorf("failed cell spent %d attempts, want the full budget of 2", gf.Report.Failed[0].Attempts)
		}
	}
	failures, err := store.Failures("shard-quarantine")
	if err != nil {
		t.Fatal(err)
	}
	if len(failures) != 1 || failures[0].Cell != 1 {
		t.Fatalf("ledger failures: %+v, want exactly cell 1", failures)
	}
}

// TestShardedRejectsDoubleStore pins the API guard: a sharded grid must
// not also carry a Grid.Store, and a nil lease store is refused.
func TestShardedRejectsDoubleStore(t *testing.T) {
	runner := mpic.NewRunner()
	defer runner.Close()
	grid := mpic.Grid{Cells: []mpic.GridCell{{Scenario: gridBase()}}}
	if err := runner.RunGridSharded(context.Background(), grid, nil, mpic.ShardOptions{}, nil); err == nil {
		t.Error("nil lease store accepted")
	}
	store := mpic.NewDirLeaseStore(t.TempDir())
	grid.Store = store
	if err := runner.RunGridSharded(context.Background(), grid, store, mpic.ShardOptions{}, nil); err == nil ||
		!strings.Contains(err.Error(), "Grid.Store") {
		t.Errorf("grid with its own store accepted: %v", err)
	}
}
