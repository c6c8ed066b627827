package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"time"

	"mpic"
	"mpic/internal/gridspec"
)

// shortGridCells is the -short session size: the grid's first cells, so
// their pins still apply.
const shortGridCells = 10

// gridSystem runs durable grid sessions: a 1000-cell n × scheme × rate
// grid on two workers with a FileGridStore in a fresh directory, one cell
// per op. Sessions run whole, so every run measures the store from its
// first save to its last. Every session runs the same grid, so later
// sessions also check that each cell reproduces.
type gridSystem struct {
	cfg    config
	grid   mpic.Grid
	runner *mpic.Runner
}

func newGridSystem(cfg config) system { return &gridSystem{cfg: cfg} }

// gridSpec is the session's grid: rates evenly spaced in [0, 0.002).
func gridSpec(seed int64, rates int) gridspec.Grid {
	rs := make([]string, rates)
	for i := range rs {
		rs[i] = strconv.FormatFloat(0.002*float64(i)/float64(rates), 'g', -1, 64)
	}
	return gridspec.Grid{
		N: "4,6", Schemes: "A,B", Rates: strings.Join(rs, ","),
		Trials: 1, IterFactor: 12, Seed: seed,
	}.Normalize()
}

func (d *gridSystem) setup() error {
	grid, err := gridSpec(d.cfg.seed, 250).Build()
	if err != nil {
		return err
	}
	grid.Workers = 2
	if d.cfg.short {
		grid.Cells = grid.Cells[:shortGridCells]
	}
	d.grid = grid
	d.runner.Close()
	d.runner = mpic.NewRunner()
	// Warm up on a one-cell session of its own.
	warm, err := gridSpec(warmupSeed, 1).Build()
	if err != nil {
		return err
	}
	warm.Cells = warm.Cells[:1]
	dir, err := os.MkdirTemp(d.cfg.tmp, "grid-warmup-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	warm.Store = mpic.NewFileGridStore(filepath.Join(dir, "session.json"))
	_, err = d.runner.CollectGrid(context.Background(), warm)
	return err
}

func (d *gridSystem) run(ph *phase) error {
	for base := 0; ph.open(); base += len(d.grid.Cells) {
		if err := d.session(ph, base); err != nil {
			return err
		}
	}
	return nil
}

func (d *gridSystem) close() { d.runner.Close() }

// session runs the grid once into a fresh store; base is the op id of
// its first cell. An op's latency is the gap between consecutive
// streamed cells — the cadence a consumer of the stream sees, with every
// cell's save on its path.
func (d *gridSystem) session(ph *phase, base int) error {
	dir, err := os.MkdirTemp(d.cfg.tmp, "grid-session-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	file := mpic.NewFileGridStore(filepath.Join(dir, "session.json"))
	g := d.grid
	g.Store = file
	tr := ph.tr
	var store *timedStore
	if tr != nil {
		store = &timedStore{inner: file, tr: tr, base: base}
		g.Store = store
		g.Progress = (&gridProgress{tr: tr, base: base, start: map[int]time.Time{}, iter: map[int]time.Time{}}).event
	}

	streamed := make(map[int]string, len(g.Cells))
	var sinkErr error
	start := time.Now()
	last := start
	err = d.runner.RunGrid(context.Background(), g, func(res mpic.GridCellResult) {
		now := time.Now()
		if _, ok := ph.claimInUnit(); !ok {
			sinkErr = fmt.Errorf("grid session outgrew the op limit")
			return
		}
		hash, cerr := checkCell(g, res)
		streamed[res.Index] = hash
		ph.done(res.Index, now.Sub(last), hash, cerr)
		tr.span(base+res.Index, "grid.cell", 0, last, now)
		last = now
	})
	end := time.Now()
	if err == nil {
		err = sinkErr
	}
	if err != nil {
		return fmt.Errorf("grid session: %w", err)
	}
	if len(streamed) != len(g.Cells) {
		ph.fail(fmt.Errorf("grid session streamed %d of %d cells", len(streamed), len(g.Cells)))
	}
	// The durable record must say exactly what the stream said.
	saved, err := mpic.NewFileGridStore(file.Path()).Load(g.Spec)
	if err != nil {
		return fmt.Errorf("reloading the session store: %w", err)
	}
	if len(saved) != len(streamed) {
		ph.fail(fmt.Errorf("store holds %d cells, stream delivered %d", len(saved), len(streamed)))
	}
	for _, c := range saved {
		if hash, err := cellHash(c.Key, c.Cell); err != nil || hash != streamed[c.Index] {
			ph.fail(fmt.Errorf("op %d: stored cell %d differs from the streamed one", base+c.Index, c.Index))
		}
	}
	if tr != nil {
		wall := end.Sub(start)
		tr.add("grid.session_ms", ms(wall))
		tr.add("grid.capacity_ms", float64(g.Workers)*ms(wall))
		store.finish()
	}
	return nil
}

func cellHash(key mpic.GridKey, cell mpic.SweepCell) (string, error) {
	return hashJSON(struct {
		Key  mpic.GridKey
		Cell mpic.SweepCell
	}{key, cell})
}

// checkCell verifies a streamed cell against its grid position and
// returns the hash of its key and aggregate.
func checkCell(g mpic.Grid, res mpic.GridCellResult) (string, error) {
	if res.Err != nil {
		return "", res.Err
	}
	if res.Index < 0 || res.Index >= len(g.Cells) {
		return "", fmt.Errorf("cell index %d outside the %d-cell grid", res.Index, len(g.Cells))
	}
	want := g.Cells[res.Index].Key
	c := res.Cell
	switch {
	case res.Key.N != want.N || res.Key.Scheme != want.Scheme || res.Key.Rate != want.Rate:
		return "", fmt.Errorf("cell %d streamed under key %+v, grid says %+v", res.Index, res.Key, want)
	case c.Trials != 1 || len(c.Blowups) != 1 || len(c.Iterations) != 1:
		return "", fmt.Errorf("cell %d aggregates %d trials (%d blowups), want 1", res.Index, c.Trials, len(c.Blowups))
	case c.Successes < 0 || c.Successes > c.Trials:
		return "", fmt.Errorf("cell %d has %d successes in %d trials", res.Index, c.Successes, c.Trials)
	}
	return cellHash(res.Key, res.Cell)
}

// timedStore is the traced phase's GridStore decorator: it times every
// Save and weighs what the save left on disk. The grid engine calls it
// serially.
type timedStore struct {
	inner *mpic.FileGridStore
	tr    *tracer
	base  int
	saves []float64 // ms, in save order
	bytes int64
}

func (s *timedStore) Load(spec string) ([]mpic.StoredCell, error) { return s.inner.Load(spec) }

func (s *timedStore) Save(spec string, cells []mpic.StoredCell) error {
	start := time.Now()
	err := s.inner.Save(spec, cells)
	end := time.Now()
	s.saves = append(s.saves, ms(end.Sub(start)))
	s.tr.observe("store.save_ms", ms(end.Sub(start)))
	if len(cells) > 0 {
		s.tr.span(s.base+cells[len(cells)-1].Index, "store.save", 0, start, end)
	}
	if fi, statErr := os.Stat(s.inner.Path()); statErr == nil {
		s.bytes += fi.Size()
	}
	return err
}

// finish folds one session's saves into the tracer: total save time,
// bytes written, and the growth of the per-save cost over the session
// (mean of the last 100 saves over the mean of the first 100).
func (s *timedStore) finish() {
	total := 0.0
	for _, v := range s.saves {
		total += v
	}
	s.tr.add("store.saves", float64(len(s.saves)))
	s.tr.add("store.save_total_ms", total)
	s.tr.add("store.bytes", float64(s.bytes))
	k := 100
	if len(s.saves) < 2*k {
		k = len(s.saves) / 2
	}
	if k > 0 {
		if first := mean(s.saves[:k]); first > 0 {
			s.tr.observe("store.save_growth", mean(s.saves[len(s.saves)-k:])/first)
		}
	}
}

// gridProgress turns the grid's progress stream into cell execution
// spans, per-iteration gaps and run counters. The engine serializes
// progress calls.
type gridProgress struct {
	tr    *tracer
	base  int
	start map[int]time.Time // trial start per executing cell
	iter  map[int]time.Time // last iteration per executing cell
}

func (p *gridProgress) event(ev mpic.GridProgress) {
	now := time.Now()
	switch ev.Event {
	case mpic.GridTrialStart:
		p.start[ev.Cell] = now
	case mpic.GridIteration:
		if prev, ok := p.iter[ev.Cell]; ok {
			p.tr.observe("core.iteration_us", float64(now.Sub(prev))/float64(time.Microsecond))
		}
		p.iter[ev.Cell] = now
	case mpic.GridTrialDone:
		if s, ok := p.start[ev.Cell]; ok {
			p.tr.observe("grid.cell_exec_ms", ms(now.Sub(s)))
			p.tr.add("grid.busy_ms", ms(now.Sub(s)))
			p.tr.span(p.base+ev.Cell, "grid.cell_exec", 0, s, now)
		}
		delete(p.start, ev.Cell)
		delete(p.iter, ev.Cell)
		recordResult(p.tr, ev.Result)
	}
}
