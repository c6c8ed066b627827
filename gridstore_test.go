package mpic_test

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"testing"

	"mpic"
)

// sessionGrid is the durable-session test grid: enough cells that a
// cancellation lands mid-flight.
func sessionGrid(t *testing.T) mpic.Grid {
	t.Helper()
	grid := sweep{
		Base:     gridBase(),
		Rates:    []float64{0, 0.001, 0.002, 0.003, 0.004, 0.005},
		Trials:   2,
		SeedStep: 100,
	}.grid()
	return grid
}

// readStore decodes a FileGridStore journal for assertions: the spec
// from its header and the completed cells of its done records.
func readStore(t *testing.T, path string) (spec string, cells []json.RawMessage) {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSuffix(string(data), "\n"), "\n")
	var header struct {
		Version int
		Spec    string
	}
	if err := json.Unmarshal([]byte(lines[0]), &header); err != nil {
		t.Fatal(err)
	}
	if header.Version != 4 {
		t.Fatalf("store version = %d, want 4", header.Version)
	}
	for _, line := range lines[1:] {
		sum, payload, ok := strings.Cut(line, " ")
		if !ok || len(sum) != 64 {
			t.Fatalf("record %q does not start with a hex SHA-256", line)
		}
		var rec struct{ Done json.RawMessage }
		if err := json.Unmarshal([]byte(payload), &rec); err != nil {
			t.Fatal(err)
		}
		if rec.Done != nil {
			cells = append(cells, rec.Done)
		}
	}
	return header.Spec, cells
}

// TestGridCancelThenResume is the durable-session pin: cancel a parallel
// grid mid-flight, assert the store holds exactly the cells that
// completed, resume, and require the merged result bit-identical to an
// uninterrupted run.
func TestGridCancelThenResume(t *testing.T) {
	path := filepath.Join(t.TempDir(), "session.json")
	grid := sessionGrid(t)
	grid.Workers = 2
	grid.Store = mpic.NewFileGridStore(path)

	runner := mpic.NewRunner()
	defer runner.Close()

	// Uninterrupted reference, same runner, no store.
	ref := sessionGrid(t)
	ref.Workers = 2
	want, err := runner.CollectGrid(context.Background(), ref)
	if err != nil {
		t.Fatal(err)
	}

	// Cancel after the second completed cell streams.
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	streamed := 0
	err = runner.RunGrid(ctx, grid, func(res mpic.GridCellResult) {
		if res.Restored {
			t.Error("fresh session streamed a restored cell")
		}
		streamed++
		if streamed == 2 {
			cancel()
		}
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled grid returned %v, want context.Canceled", err)
	}
	if streamed >= len(grid.Cells) {
		t.Fatalf("all %d cells streamed before cancellation took effect", streamed)
	}

	// The store holds exactly the completed cells — no partials, nothing
	// from the cancelled in-flight runs.
	spec, saved := readStore(t, path)
	if spec != grid.Fingerprint() {
		t.Errorf("store spec = %q, want the grid fingerprint %q", spec, grid.Fingerprint())
	}
	if len(saved) != streamed {
		t.Fatalf("store holds %d cells, sink saw %d completions", len(saved), streamed)
	}

	// Resume: restored cells replay, the rest execute, and the merged
	// grid is bit-identical to the uninterrupted run.
	restored := 0
	got, err := runner.CollectGrid(context.Background(), mpic.Grid{
		Cells:   grid.Cells,
		Workers: 2,
		Store:   mpic.NewFileGridStore(path),
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := range got {
		if got[i].Restored {
			restored++
		}
		if !reflect.DeepEqual(got[i].Cell, want[i].Cell) {
			t.Errorf("cell %d differs after resume:\nresumed:       %+v\nuninterrupted: %+v", i, got[i].Cell, want[i].Cell)
		}
	}
	if restored != streamed {
		t.Errorf("resume restored %d cells, checkpoint held %d", restored, streamed)
	}

	// A third run restores everything and executes nothing.
	all, err := runner.CollectGrid(context.Background(), mpic.Grid{
		Cells: grid.Cells,
		Store: mpic.NewFileGridStore(path),
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := range all {
		if !all[i].Restored {
			t.Errorf("cell %d re-ran on a complete checkpoint", i)
		}
	}
}

// TestGridDuplicateKeyResume pins resume for cells that share a key and
// differ only in Tune (the ablation shape): a 4-worker session is
// cancelled mid-flight and resumed on 4 workers, and every cell must
// still match a sequential uninterrupted run. The first two cells run
// every iteration of a larger budget, several times the cost of the
// others, so the cells the cancelled run completes are not a prefix of
// the definition order: a resume that matched saved cells on key order
// alone, not on (Index, Key), would hand them to the wrong cells.
func TestGridDuplicateKeyResume(t *testing.T) {
	cells := make([]mpic.GridCell, 8)
	for i := range cells {
		sc := gridBase()
		sc.Noise = mpic.RandomNoise(0.004)
		bits, heavy := 2+i, i < 2
		sc.Tune = func(p *mpic.Params) {
			p.HashBits = bits
			if heavy {
				p.EarlyStop, p.IterFactor = false, 40
			}
		}
		cells[i] = mpic.GridCell{Scenario: sc, Trials: 2, SeedStep: 100}
	}
	runner := mpic.NewRunner()
	defer runner.Close()
	want, err := runner.CollectGrid(context.Background(), mpic.Grid{Cells: cells, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	// The check is only as strong as the cells are distinct.
	for i := range want {
		for j := i + 1; j < len(want); j++ {
			if reflect.DeepEqual(want[i].Cell, want[j].Cell) {
				t.Fatalf("cells %d and %d are identical; a swapped restore would go unseen", i, j)
			}
		}
	}

	path := filepath.Join(t.TempDir(), "session.json")
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	streamed := 0
	err = runner.RunGrid(ctx, mpic.Grid{Cells: cells, Workers: 4, Store: mpic.NewFileGridStore(path)},
		func(mpic.GridCellResult) {
			if streamed++; streamed == 3 {
				cancel()
			}
		})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled grid returned %v, want context.Canceled", err)
	}

	got, err := runner.CollectGrid(context.Background(), mpic.Grid{Cells: cells, Workers: 4, Store: mpic.NewFileGridStore(path)})
	if err != nil {
		t.Fatal(err)
	}
	restored := 0
	for i := range got {
		if got[i].Restored {
			restored++
		}
		if !reflect.DeepEqual(got[i].Cell, want[i].Cell) {
			t.Errorf("cell %d (restored=%v) differs from the sequential run:\nresumed:    %+v\nsequential: %+v",
				i, got[i].Restored, got[i].Cell, want[i].Cell)
		}
	}
	if restored != streamed || restored == len(cells) {
		t.Errorf("resume restored %d of %d cells, the cancelled run completed %d", restored, len(cells), streamed)
	}
}

// savedID is the identity of one saved cell.
type savedID struct {
	Index int
	Key   mpic.GridKey
}

// recordingStore is a FileGridStore that records the identity of every
// cell each Save is handed, one entry per Save call.
type recordingStore struct {
	*mpic.FileGridStore
	saves [][]savedID
}

func (r *recordingStore) Save(spec string, cells []mpic.StoredCell) error {
	ids := make([]savedID, len(cells))
	for i, c := range cells {
		ids[i] = savedID{c.Index, c.Key}
	}
	r.saves = append(r.saves, ids)
	return r.FileGridStore.Save(spec, cells)
}

// TestGridSavesEachCellOnce pins the session contract for pluggable
// stores: the engine calls Save once per freshly completed cell, with
// only that cell, and never saves a cell it restored. It checks a
// cancelled 2-worker grid and then the run that resumes it.
func TestGridSavesEachCellOnce(t *testing.T) {
	path := filepath.Join(t.TempDir(), "session.journal")
	runner := mpic.NewRunner()
	defer runner.Close()

	// run executes the session grid on a recording store over path,
	// cancelling after cancelAt fresh cells (never when 0), and checks its
	// saves against the cells it streamed.
	run := func(name string, cancelAt int) (fresh, restored map[savedID]bool) {
		grid := sessionGrid(t)
		grid.Workers = 2
		store := &recordingStore{FileGridStore: mpic.NewFileGridStore(path)}
		grid.Store = store
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		fresh, restored = map[savedID]bool{}, map[savedID]bool{}
		err := runner.RunGrid(ctx, grid, func(res mpic.GridCellResult) {
			if res.Restored {
				restored[savedID{res.Index, res.Key}] = true
				return
			}
			fresh[savedID{res.Index, res.Key}] = true
			if len(fresh) == cancelAt {
				cancel()
			}
		})
		if cancelAt > 0 && !errors.Is(err, context.Canceled) {
			t.Fatalf("%s: got %v, want context.Canceled", name, err)
		}
		if cancelAt == 0 && err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if len(store.saves) != len(fresh) {
			t.Errorf("%s: %d saves for %d freshly completed cells, want one each", name, len(store.saves), len(fresh))
		}
		saved := map[savedID]bool{}
		for k, ids := range store.saves {
			if len(ids) != 1 {
				t.Errorf("%s: save %d carried %d cells %v, want only the new one", name, k, len(ids), ids)
			}
			for _, id := range ids {
				switch {
				case restored[id]:
					t.Errorf("%s: save %d carried restored cell %+v", name, k, id)
				case !fresh[id]:
					t.Errorf("%s: save %d carried cell %+v, which did not complete in this run", name, k, id)
				case saved[id]:
					t.Errorf("%s: cell %+v saved twice", name, id)
				}
				saved[id] = true
			}
		}
		return fresh, restored
	}

	first, _ := run("cancelled run", 2)
	fresh, restored := run("resumed run", 0)
	if !reflect.DeepEqual(restored, first) {
		t.Errorf("resume restored cells %v, the cancelled run completed %v", restored, first)
	}
	if n := len(sessionGrid(t).Cells); len(fresh)+len(restored) != n {
		t.Errorf("resume ran %d and restored %d of %d cells", len(fresh), len(restored), n)
	}
}

// TestFileGridStoreContract pins the store's edges: a missing file is an
// empty session, a spec mismatch and an unknown format version are loud
// errors, and Save round-trips through Load.
func TestFileGridStoreContract(t *testing.T) {
	dir := t.TempDir()
	store := mpic.NewFileGridStore(filepath.Join(dir, "sub", "s.json"))
	if cells, err := store.Load("spec"); err != nil || cells != nil {
		t.Fatalf("missing file: got (%v, %v), want (nil, nil)", cells, err)
	}
	saved := []mpic.StoredCell{{
		Index: 3,
		Key:   mpic.GridKey{N: 4, Scheme: mpic.AlgorithmA, Rate: 0.5},
		Cell:  mpic.SweepCell{N: 4, Scheme: mpic.AlgorithmA, Rate: 0.5, Trials: 2, Successes: 1, Blowups: []float64{1.5, 2.5}},
	}}
	if err := store.Save("spec", saved); err != nil {
		t.Fatal(err)
	}
	got, err := store.Load("spec")
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, saved) {
		t.Errorf("round-trip mismatch:\nsaved:  %+v\nloaded: %+v", saved, got)
	}
	if _, err := store.Load("other-spec"); err == nil || !strings.Contains(err.Error(), "different grid") {
		t.Errorf("spec mismatch: got %v", err)
	}
	legacy := filepath.Join(dir, "legacy.json")
	if err := os.WriteFile(legacy, []byte(`{"Spec":"spec","Cells":[]}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := mpic.NewFileGridStore(legacy).Load("spec"); err == nil || !strings.Contains(err.Error(), "format version") {
		t.Errorf("versionless checkpoint: got %v", err)
	}
	v1 := filepath.Join(dir, "v1.json")
	if err := os.WriteFile(v1, []byte(`{"Version":1,"Spec":"spec","Cells":[]}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := mpic.NewFileGridStore(v1).Load("spec"); err == nil || !strings.Contains(err.Error(), "format version") {
		t.Errorf("pre-checksum v1 checkpoint: got %v", err)
	}

	// Save appends only what the journal lacks: resaving held cells, in
	// any order, writes nothing.
	before, err := os.ReadFile(store.Path())
	if err != nil {
		t.Fatal(err)
	}
	if err := store.Save("spec", append(saved, saved...)); err != nil {
		t.Fatal(err)
	}
	if after, err := os.ReadFile(store.Path()); err != nil || string(after) != string(before) {
		t.Errorf("a Save of held cells rewrote the journal (%v)", err)
	}
}

// TestLeaseEraJournalLoads pins the resume of a session journal written
// by the retired lease store (testdata/lease-era.journal: claim, done,
// renew, failed, claim, done, release). Load returns exactly its done
// cells — the lease and failure records are skipped — and a later Save
// appends a new cell after them.
func TestLeaseEraJournalLoads(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("testdata", "lease-era.journal"))
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "journal")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	store := mpic.NewFileGridStore(path)
	store.OnRecovery = func(reason error) { t.Errorf("Load recovered a clean journal: %v", reason) }
	cells, err := store.Load(fuzzJournalSpec)
	if err != nil {
		t.Fatal(err)
	}
	cell := func(i int, rate float64) mpic.StoredCell {
		return mpic.StoredCell{
			Index: i, Key: mpic.GridKey{N: 4, Scheme: mpic.AlgorithmA, Rate: rate},
			Cell: mpic.SweepCell{N: 4, Scheme: mpic.AlgorithmA, Rate: rate, Trials: 1, Successes: 1,
				Blowups: []float64{2.5}, Iterations: []float64{40}},
		}
	}
	want := []mpic.StoredCell{cell(0, 0), cell(2, 0.002)}
	if !reflect.DeepEqual(cells, want) {
		t.Fatalf("lease-era journal loaded\n%+v\nwant its done cells\n%+v", cells, want)
	}
	want = append(want, cell(3, 0.003))
	if err := store.Save(fuzzJournalSpec, want); err != nil {
		t.Fatal(err)
	}
	got, err := mpic.NewFileGridStore(path).Load(fuzzJournalSpec)
	if err != nil || !reflect.DeepEqual(got, want) {
		t.Fatalf("after a Save the journal loads (%+v, %v), want %+v", got, err, want)
	}
}

// genCells returns n distinct stored cells.
func genCells(n int) []mpic.StoredCell {
	var cells []mpic.StoredCell
	for i := 0; i < n; i++ {
		cells = append(cells, mpic.StoredCell{Index: i, Key: mpic.GridKey{N: 4 + i}, Cell: mpic.SweepCell{N: 4 + i, Trials: 1}})
	}
	return cells
}

// lineStart returns the byte offset where line k of data begins.
func lineStart(data []byte, k int) int {
	at := 0
	for ; k > 0; k-- {
		at += strings.IndexByte(string(data[at:]), '\n') + 1
	}
	return at
}

// flipAt returns data with the byte at i changed.
func flipAt(data []byte, i int) []byte {
	out := append([]byte(nil), data...)
	out[i] ^= 0x01
	return out
}

// TestFileGridStoreCorruptionRecovery pins the journal's damage
// contract on a session of three saved cells: a torn or bit-flipped
// final record is what a crash mid-append leaves, so Load cuts it off,
// tells OnRecovery, and keeps the rest; a bad record followed by good
// ones, or a torn header, is a typed *CorruptCheckpointError with
// delete-to-restart guidance; and the whole-file checkpoints of older
// versions are rejected by version.
func TestFileGridStoreCorruptionRecovery(t *testing.T) {
	const (
		recovered = iota
		corrupt
		version
	)
	for _, tc := range []struct {
		name   string
		damage func(data []byte) []byte
		want   int
	}{
		{"truncated last record", func(d []byte) []byte {
			start := lineStart(d, 3)
			return d[:start+(len(d)-start)/2]
		}, recovered},
		{"last record without its newline", func(d []byte) []byte { return d[:len(d)-1] }, recovered},
		{"flipped byte in last record", func(d []byte) []byte {
			start := lineStart(d, 3)
			return flipAt(d, start+(len(d)-start)/2)
		}, recovered},
		{"flipped byte in middle record", func(d []byte) []byte {
			start := lineStart(d, 2)
			return flipAt(d, (start+lineStart(d, 3))/2)
		}, corrupt},
		{"flipped byte in header", func(d []byte) []byte { return flipAt(d, lineStart(d, 1)/2) }, corrupt},
		{"torn header", func(d []byte) []byte { return d[:lineStart(d, 1)/2] }, corrupt},
		{"v3 checkpoint", func([]byte) []byte {
			return []byte("{\n  \"Version\": 3,\n  \"Spec\": \"spec\",\n  \"Checksum\": \"00\",\n  \"Cells\": []\n}\n")
		}, version},
		{"versionless checkpoint", func([]byte) []byte { return []byte(`{"Spec":"spec","Cells":[]}`) }, version},
	} {
		t.Run(tc.name, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "s.json")
			writer := mpic.NewFileGridStore(path)
			for n := 1; n <= 3; n++ {
				if err := writer.Save("spec", genCells(n)); err != nil {
					t.Fatal(err)
				}
			}
			data, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path, tc.damage(data), 0o644); err != nil {
				t.Fatal(err)
			}
			var reasons []error
			store := mpic.NewFileGridStore(path)
			store.OnRecovery = func(reason error) { reasons = append(reasons, reason) }
			cells, err := store.Load("spec")
			var ce *mpic.CorruptCheckpointError
			switch tc.want {
			case recovered:
				if err != nil {
					t.Fatalf("torn tail: %v", err)
				}
				if !reflect.DeepEqual(cells, genCells(2)) {
					t.Fatalf("recovered %+v, want the first two cells", cells)
				}
				if len(reasons) != 1 || !errors.As(reasons[0], &ce) {
					t.Fatalf("OnRecovery saw %v, want one *CorruptCheckpointError", reasons)
				}
				// The cut is durable, and the lost cell saves again.
				if err := mpic.NewFileGridStore(path).Save("spec", genCells(3)); err != nil {
					t.Fatal(err)
				}
				again, err := store.Load("spec")
				if err != nil || !reflect.DeepEqual(again, genCells(3)) || len(reasons) != 1 {
					t.Fatalf("after re-saving: %+v, %v, %d recoveries", again, err, len(reasons))
				}
			case corrupt:
				if !errors.As(err, &ce) {
					t.Fatalf("got %v, want *CorruptCheckpointError", err)
				}
				if tc.name == "flipped byte in middle record" && !strings.Contains(err.Error(), fmt.Sprintf("byte %d", lineStart(data, 2))) {
					t.Errorf("corruption error does not name the bad record's offset %d: %v", lineStart(data, 2), err)
				}
				if !strings.Contains(err.Error(), "delete the file") {
					t.Errorf("corruption error gives no recovery guidance: %v", err)
				}
				if len(reasons) != 0 {
					t.Errorf("corruption reported as a recovery: %v", reasons)
				}
			case version:
				if err == nil || !strings.Contains(err.Error(), "format version") || errors.As(err, &ce) {
					t.Fatalf("got %v, want a format version rejection", err)
				}
			}
		})
	}
}

// TestGridValidation pins the spec-error contract: negative Workers and
// negative Trials are rejected before anything runs, while the zero
// values keep their documented clamps (GOMAXPROCS and 1).
func TestGridValidation(t *testing.T) {
	runner := mpic.NewRunner()
	defer runner.Close()
	ran := 0
	err := runner.RunGrid(context.Background(), mpic.Grid{
		Cells:   []mpic.GridCell{{Scenario: gridBase()}},
		Workers: -1,
	}, func(mpic.GridCellResult) { ran++ })
	if err == nil || !strings.Contains(err.Error(), "Workers") {
		t.Errorf("negative Workers: got %v", err)
	}
	err = runner.RunGrid(context.Background(), mpic.Grid{
		Cells: []mpic.GridCell{{Scenario: gridBase()}, {Scenario: gridBase(), Trials: -2}},
	}, func(mpic.GridCellResult) { ran++ })
	if err == nil || !strings.Contains(err.Error(), "cell 1") || !strings.Contains(err.Error(), "Trials") {
		t.Errorf("negative Trials: got %v", err)
	}
	if ran != 0 {
		t.Errorf("%d cells ran despite invalid specs", ran)
	}
	// The documented clamps still hold: zero Workers and zero Trials run.
	cells, err := runner.CollectGrid(context.Background(), mpic.Grid{
		Cells: []mpic.GridCell{{Scenario: gridBase()}},
	})
	if err != nil || cells[0].Cell.Trials != 1 {
		t.Errorf("zero-value clamps broken: cells=%+v err=%v", cells, err)
	}
}

// TestGridProgressStream pins the fine-grained progress contract: every
// trial narrates start → iterations → done, events arrive while the
// grid is still executing (before later cells complete), and cell
// completions close each cell's stream.
func TestGridProgressStream(t *testing.T) {
	grid := sweep{
		Base:   gridBase(),
		Rates:  []float64{0, 0.001},
		Trials: 2,
	}.grid()
	grid.Workers = 1 // one goroutine: progress and sink order is total

	type step struct {
		event mpic.GridEvent
		cell  int
		trial int
		sink  bool
	}
	var steps []step
	grid.Progress = func(p mpic.GridProgress) {
		if p.Cells != len(grid.Cells) {
			t.Errorf("event %v reports %d cells, want %d", p.Event, p.Cells, len(grid.Cells))
		}
		switch p.Event {
		case mpic.GridTrialStart:
			if p.Info == nil || p.Info.Iterations <= 0 {
				t.Errorf("trial start without an iteration budget: %+v", p.Info)
			}
		case mpic.GridIteration:
			if p.Stats == nil || p.Stats.Iteration != p.Iteration {
				t.Errorf("iteration event stats mismatch: %+v", p)
			}
		case mpic.GridTrialDone:
			if p.Result == nil {
				t.Error("trial done without a result")
			}
		}
		steps = append(steps, step{event: p.Event, cell: p.Cell, trial: p.Trial})
	}
	runner := mpic.NewRunner()
	defer runner.Close()
	delivered := 0
	err := runner.RunGrid(context.Background(), grid, func(res mpic.GridCellResult) {
		steps = append(steps, step{cell: res.Index, sink: true})
		delivered++
	})
	if err != nil {
		t.Fatal(err)
	}
	if delivered != 2 {
		t.Fatalf("delivered %d cells, want 2", delivered)
	}

	// Progress is observed before grid completion: cell 0's iteration
	// events all precede cell 1's first event and the final delivery.
	firstOfCell1 := -1
	lastDelivery := -1
	iterationsCell0 := 0
	for i, s := range steps {
		if s.cell == 1 && firstOfCell1 < 0 {
			firstOfCell1 = i
		}
		if s.sink {
			lastDelivery = i
		}
		if !s.sink && s.cell == 0 && s.event == mpic.GridIteration {
			iterationsCell0++
			if firstOfCell1 >= 0 {
				t.Fatal("cell 0 iteration event after cell 1 started")
			}
		}
	}
	if iterationsCell0 == 0 {
		t.Fatal("no iteration events for cell 0")
	}
	if firstOfCell1 < 0 || firstOfCell1 >= lastDelivery {
		t.Fatalf("no progress observed before grid completion (cell 1 starts at %d, last delivery %d)", firstOfCell1, lastDelivery)
	}

	// Per trial: start, ≥1 iteration, done — in order; per cell a final
	// cell-done before the sink delivery.
	for cell := 0; cell < 2; cell++ {
		for trial := 0; trial < 2; trial++ {
			var kinds []mpic.GridEvent
			for _, s := range steps {
				if !s.sink && s.cell == cell && s.trial == trial && s.event != mpic.GridCellDone {
					kinds = append(kinds, s.event)
				}
			}
			if len(kinds) < 3 || kinds[0] != mpic.GridTrialStart || kinds[len(kinds)-1] != mpic.GridTrialDone {
				t.Errorf("cell %d trial %d event shape wrong: %v", cell, trial, kinds)
			}
			for _, k := range kinds[1 : len(kinds)-1] {
				if k != mpic.GridIteration {
					t.Errorf("cell %d trial %d interior event %v, want iteration", cell, trial, k)
				}
			}
		}
		cellDone := false
		for i, s := range steps {
			if !s.sink && s.cell == cell && s.event == mpic.GridCellDone {
				cellDone = true
				if i+1 >= len(steps) || !steps[i+1].sink || steps[i+1].cell != cell {
					t.Errorf("cell %d done event not immediately followed by its delivery", cell)
				}
			}
		}
		if !cellDone {
			t.Errorf("cell %d never emitted cell-done", cell)
		}
	}
}

// TestProgressLogAndRestoredEvents pins the ready-made sink's narration,
// including the restored-cell line on resume.
func TestProgressLogAndRestoredEvents(t *testing.T) {
	path := filepath.Join(t.TempDir(), "s.json")
	grid := sweep{Base: gridBase(), Rates: []float64{0, 0.001}}.grid()
	grid.Store = mpic.NewFileGridStore(path)
	var log strings.Builder
	grid.Progress = mpic.NewProgressLog(&log)

	runner := mpic.NewRunner()
	defer runner.Close()
	if err := runner.RunGrid(context.Background(), grid, nil); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"trial 1/1 started", "iter 0:", "trial 1/1 done: SUCCESS", "done (1 trials)"} {
		if !strings.Contains(log.String(), want) {
			t.Errorf("progress log missing %q:\n%s", want, log.String())
		}
	}
	log.Reset()
	if err := runner.RunGrid(context.Background(), grid, nil); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(log.String(), "restored from checkpoint") {
		t.Errorf("resumed progress log missing restore lines:\n%s", log.String())
	}
	if strings.Contains(log.String(), "trial 1/1 started") {
		t.Errorf("fully restored session still executed trials:\n%s", log.String())
	}
}

// TestGridFingerprint pins the default spec's sensitivity: the same grid
// fingerprints identically across constructions, and every axis a
// checkpoint must not survive — seed, trials, noise rate, scheme —
// changes it.
func TestGridFingerprint(t *testing.T) {
	mk := func(mut func(*sweep)) string {
		sw := sweep{Base: gridBase(), Rates: []float64{0, 0.001}, Trials: 2}
		if mut != nil {
			mut(&sw)
		}
		return sw.grid().Fingerprint()
	}
	base := mk(nil)
	if again := mk(nil); again != base {
		t.Errorf("same grid fingerprints differ: %q vs %q", base, again)
	}
	if strings.ContainsAny(base, "/\\ ") {
		t.Errorf("fingerprint %q is not filesystem-safe", base)
	}
	// Two structurally different explicit graphs with equal node and
	// edge counts (a path and a star, both n=4 m=3) must not share a
	// fingerprint — a stale session would otherwise silently resume.
	mkGraph := func(edges [][2]int) *mpic.Graph {
		g := mpic.NewGraph(4)
		for _, e := range edges {
			if err := g.AddEdge(mpic.Node(e[0]), mpic.Node(e[1])); err != nil {
				t.Fatal(err)
			}
		}
		if err := g.Validate(); err != nil {
			t.Fatal(err)
		}
		return g
	}
	graphFP := func(g *mpic.Graph) string {
		sc := gridBase()
		sc.Topology = mpic.GraphTopology(g)
		return mpic.Grid{Cells: []mpic.GridCell{{Scenario: sc}}}.Fingerprint()
	}
	path := graphFP(mkGraph([][2]int{{0, 1}, {1, 2}, {2, 3}}))
	star := graphFP(mkGraph([][2]int{{0, 1}, {0, 2}, {0, 3}}))
	if path == star {
		t.Error("fingerprint blind to explicit-graph structure (path vs star, same n and m)")
	}
	if again := graphFP(mkGraph([][2]int{{0, 1}, {1, 2}, {2, 3}})); again != path {
		t.Errorf("same explicit graph fingerprints differ: %q vs %q", path, again)
	}
	for name, mut := range map[string]func(*sweep){
		"seed":    func(sw *sweep) { sw.Base.Seed++ },
		"trials":  func(sw *sweep) { sw.Trials = 3 },
		"rates":   func(sw *sweep) { sw.Rates = []float64{0, 0.002} },
		"scheme":  func(sw *sweep) { sw.Schemes = []mpic.Scheme{mpic.AlgorithmB} },
		"n":       func(sw *sweep) { sw.N = []int{5} },
		"budget":  func(sw *sweep) { sw.Base.IterFactor = 99 },
		"noise":   func(sw *sweep) { sw.Base.Noise = mpic.Adaptive(0) },
		"rounds":  func(sw *sweep) { sw.Base.Workload = mpic.RandomTraffic(41) },
		"seedstp": func(sw *sweep) { sw.SeedStep = 7 },
	} {
		if mk(mut) == base {
			t.Errorf("fingerprint blind to %s", name)
		}
	}
}

// TestKeepResultsPersistAndRestore pins satellite persistence: a
// KeepResults grid under a durable session stores every trial's Result
// (as StoredResult), and a resumed run streams them back bit-identical —
// metrics, potential trajectories, and virtual-time NetStats included —
// with only the documented omissions (Outputs, Arena) nil.
func TestKeepResultsPersistAndRestore(t *testing.T) {
	path := filepath.Join(t.TempDir(), "keep.json")
	mk := func() mpic.Grid {
		base := gridBase()
		base.Noise = mpic.RandomNoise(0.002)
		base.Delay = mpic.JitterDelay(0.8)
		base.Faults = &mpic.NetFaults{SpikeRate: 0.05}
		grid := sweep{
			Base:     base,
			Rates:    []float64{0, 0.002},
			Trials:   2,
			SeedStep: 100,
		}.grid()
		grid.KeepResults = true
		grid.Store = mpic.NewFileGridStore(path)
		return grid
	}
	runner := mpic.NewRunner()
	defer runner.Close()

	fresh, err := runner.CollectGrid(context.Background(), mk())
	if err != nil {
		t.Fatal(err)
	}
	replayed, err := runner.CollectGrid(context.Background(), mk())
	if err != nil {
		t.Fatal(err)
	}
	if len(replayed) != len(fresh) {
		t.Fatalf("replay returned %d cells, want %d", len(replayed), len(fresh))
	}
	for i := range replayed {
		if !replayed[i].Restored {
			t.Fatalf("cell %d re-ran on a complete KeepResults checkpoint", i)
		}
		if len(replayed[i].Results) != len(fresh[i].Results) || len(replayed[i].Results) == 0 {
			t.Fatalf("cell %d restored %d trial results, want %d",
				i, len(replayed[i].Results), len(fresh[i].Results))
		}
		for j, got := range replayed[i].Results {
			want := fresh[i].Results[j]
			if got.Outputs != nil || got.Arena != nil {
				t.Errorf("cell %d trial %d: restored result carries Outputs/Arena", i, j)
			}
			if !reflect.DeepEqual(got.Metrics, want.Metrics) {
				t.Errorf("cell %d trial %d metrics differ after restore:\n%+v\n%+v",
					i, j, got.Metrics, want.Metrics)
			}
			if got.Metrics.Net == nil {
				t.Errorf("cell %d trial %d lost its NetStats in the store", i, j)
			}
			if !reflect.DeepEqual(got.Potential, want.Potential) {
				t.Errorf("cell %d trial %d potential trajectory differs after restore", i, j)
			}
			if got.Success != want.Success || got.Blowup != want.Blowup ||
				got.Iterations != want.Iterations || got.GStar != want.GStar ||
				got.NumChunks != want.NumChunks || got.CCProtocol != want.CCProtocol {
				t.Errorf("cell %d trial %d scalar fields differ after restore", i, j)
			}
		}
	}

	// A grid without KeepResults restores from the same file shape with
	// Results empty — the stored trials are simply not streamed back.
	plain := mk()
	plain.KeepResults = false
	noKeep, err := runner.CollectGrid(context.Background(), plain)
	if err != nil {
		t.Fatal(err)
	}
	for i := range noKeep {
		if len(noKeep[i].Results) != 0 {
			t.Errorf("cell %d streamed Results without KeepResults", i)
		}
	}
}

// TestFileGridStoreWritersMerge pins what uncoordinated writers on one
// session file get: two stores saving interleaved, each without
// re-reading the other's cells, merge into the union — every cell once,
// in append order — because each store replays the other's appends
// before its own.
func TestFileGridStoreWritersMerge(t *testing.T) {
	path := filepath.Join(t.TempDir(), "shared.json")
	a := mpic.NewFileGridStore(path)
	b := mpic.NewFileGridStore(path)
	const spec = "merge-spec"
	cells := genCells(4)

	if err := a.Save(spec, cells[:1]); err != nil {
		t.Fatal(err)
	}
	if err := b.Save(spec, []mpic.StoredCell{cells[1]}); err != nil {
		t.Fatal(err)
	}
	if err := a.Save(spec, []mpic.StoredCell{cells[0], cells[2]}); err != nil {
		t.Fatal(err)
	}
	if err := b.Save(spec, []mpic.StoredCell{cells[2], cells[1], cells[0], cells[3]}); err != nil {
		t.Fatal(err)
	}
	got, err := mpic.NewFileGridStore(path).Load(spec)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, cells) {
		t.Fatalf("merged session holds %+v, want %+v", got, cells)
	}
	if _, saved := readStore(t, path); len(saved) != len(cells) {
		t.Errorf("journal holds %d done records for %d cells", len(saved), len(cells))
	}
}

// TestFileGridStoreLockSerializesWriters pins the coordination half of
// concurrent access: many goroutines hammering load-merge-save on
// separate store handles (the uncoordinated-two-process shape) serialize
// on the lock, and the file ends up holding every cell exactly once.
func TestFileGridStoreLockSerializesWriters(t *testing.T) {
	path := filepath.Join(t.TempDir(), "hammer.json")
	const spec = "hammer-spec"
	const workers, each = 8, 10
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			store := mpic.NewFileGridStore(path)
			for i := 0; i < each; i++ {
				cells, err := store.Load(spec)
				if err != nil {
					t.Errorf("worker %d load: %v", w, err)
					return
				}
				if err := store.Save(spec, append(cells, mpic.StoredCell{Index: w*100 + i})); err != nil {
					t.Errorf("worker %d save: %v", w, err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	cells, err := mpic.NewFileGridStore(path).Load(spec)
	if err != nil {
		t.Fatalf("file corrupt after concurrent hammering: %v", err)
	}
	seen := map[int]bool{}
	for _, c := range cells {
		if seen[c.Index] {
			t.Errorf("cell %d stored twice", c.Index)
		}
		seen[c.Index] = true
	}
	if len(seen) != workers*each {
		t.Errorf("session holds %d distinct cells, want %d", len(seen), workers*each)
	}
}

// TestFileGridStoreSaveHeaderAllocs checks that a Save does not allocate
// the journal header: every save re-reads the header to detect a file
// replaced in place, and a grid's header carries its whole spec.
func TestFileGridStoreSaveHeaderAllocs(t *testing.T) {
	spec := strings.Repeat("spec-", 64<<10/5)
	store := mpic.NewFileGridStore(filepath.Join(t.TempDir(), "session.journal"))
	save := func(i int) {
		key := mpic.GridKey{N: 4, Scheme: mpic.AlgorithmA, Rate: float64(i) / 1000}
		cell := mpic.StoredCell{Index: i, Key: key, Cell: mpic.SweepCell{N: 4, Scheme: mpic.AlgorithmA, Rate: key.Rate, Trials: 1}}
		if err := store.Save(spec, []mpic.StoredCell{cell}); err != nil {
			t.Fatal(err)
		}
	}
	// The first saves create the journal and warm the store's buffers.
	save(0)
	save(1)
	const saves = 20
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 2; i < 2+saves; i++ {
		save(i)
	}
	runtime.ReadMemStats(&after)
	if per := (after.TotalAlloc - before.TotalAlloc) / saves; per >= 8<<10 {
		t.Errorf("a Save with a %d-byte spec allocates %d bytes, want < 8 KiB", len(spec), per)
	}
}
