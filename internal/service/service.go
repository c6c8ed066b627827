// Package service is the grid execution service behind cmd/mpicserve: a
// long-lived HTTP server that accepts grid specifications (the same
// gridspec.Grid struct the CLIs parse from flags), runs each as a
// durable session under a data directory — one Runner.RunGrid call on a
// worker pool over a FileGridStore journal — and streams the engine's
// fine-grained progress to any number of clients over Server-Sent
// Events.
//
// Sessions are content-addressed: the session ID is a hash of the
// grid's checkpoint fingerprint, so submitting the same spec twice
// attaches to the same session instead of re-running it, and a server
// restarted over the same data directory resumes every unfinished
// session from its journal. Determinism makes all of this safe — each
// cell is a pure function of the spec, so resumed or re-submitted
// sessions converge on bit-identical results whatever the worker count.
// Quarantined cells are not persisted: a restart re-attempts them.
//
// The server keeps every session it has served. A finished session
// keeps only a summary — its spec, state, counters and quarantined
// cells — and its result rereads the journal in its directory; the
// built grid, the store and the subscriber map go when the session
// finishes.
package service

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"

	"mpic"
	"mpic/internal/gridspec"
)

// Options configures a Server.
type Options struct {
	// DataDir is the root of the session stores: each session lives in
	// DataDir/<id>/ as a spec.json plus its journal, session/journal.
	DataDir string
	// Workers is how many cells each session runs at once (0 means 2).
	Workers int
	// Retries gives every failed cell that many extra attempts before
	// it is quarantined (the session still finishes; failed cells are
	// reported per session). A negative count is rejected by New.
	Retries int
	// Logf receives one line per lifecycle event (nil discards).
	Logf func(format string, args ...interface{})
}

func (o Options) withDefaults() Options {
	if o.Workers <= 0 {
		o.Workers = 2
	}
	if o.Logf == nil {
		o.Logf = func(string, ...interface{}) {}
	}
	return o
}

// Server owns the sessions and their worker pools. Create one with New,
// mount Handler on an http.Server, and stop it with Shutdown.
type Server struct {
	opts   Options
	runner *mpic.Runner

	// ctx cancels every session's run; Shutdown cancels it and waits
	// for wg (one goroutine per running session).
	ctx    context.Context
	cancel context.CancelFunc
	wg     sync.WaitGroup

	mu       sync.Mutex
	sessions map[string]*session
}

// session is one grid run: a spec, its counters and quarantined cells,
// and while it runs its store and the fan-out of progress events to SSE
// subscribers.
type session struct {
	id   string
	spec gridspec.Grid // normalized submission
	dir  string

	mu        sync.Mutex
	state     string // "running", "done", "failed"
	failure   string
	cells     int          // cells in the grid
	completed int          // cells finished (restored + executed)
	failures  []failedCell // cells quarantined this run, in completion order
	run       *sessionRun  // nil once the session is terminal
}

// failedCell is one quarantined cell of a session's result.
type failedCell struct {
	Cell     int
	Attempts int
	Reason   string
}

// sessionRun is the part of a session that lives only while it runs.
type sessionRun struct {
	store   *mpic.FileGridStore
	grid    mpic.Grid
	subs    map[int]chan []byte
	nextSub int
}

// New creates a server over a data directory and resumes every
// unfinished session found in it. Call Shutdown to stop the sessions.
func New(opts Options) (*Server, error) {
	opts = opts.withDefaults()
	if opts.DataDir == "" {
		return nil, fmt.Errorf("service: Options.DataDir is required")
	}
	if opts.Retries < 0 {
		return nil, fmt.Errorf("service: Options.Retries is %d; negative retry counts are invalid (0 means run each cell once)", opts.Retries)
	}
	if err := os.MkdirAll(opts.DataDir, 0o755); err != nil {
		return nil, err
	}
	ctx, cancel := context.WithCancel(context.Background())
	s := &Server{
		opts:     opts,
		runner:   mpic.NewRunner(),
		ctx:      ctx,
		cancel:   cancel,
		sessions: make(map[string]*session),
	}
	if err := s.resume(); err != nil {
		cancel()
		s.runner.Close()
		return nil, err
	}
	return s, nil
}

// resume scans the data directory for persisted specs and restarts
// their sessions. A session whose store already holds every cell
// finishes immediately in state "done" without re-running anything.
func (s *Server) resume() error {
	entries, err := os.ReadDir(s.opts.DataDir)
	if err != nil {
		return err
	}
	for _, e := range entries {
		if !e.IsDir() {
			continue
		}
		specPath := filepath.Join(s.opts.DataDir, e.Name(), "spec.json")
		data, err := os.ReadFile(specPath)
		if err != nil {
			if os.IsNotExist(err) {
				continue // not a session directory
			}
			return err
		}
		var g gridspec.Grid
		if err := json.Unmarshal(data, &g); err != nil {
			return fmt.Errorf("service: parsing %s: %w", specPath, err)
		}
		sess, _, err := s.open(g)
		if err != nil {
			// A spec persisted by an older build may name something this
			// build no longer runs (a retired hash mode, say); the session
			// cannot resume, and only the operator may discard its results.
			return fmt.Errorf("service: session directory %s cannot resume: %w (delete the directory and restart to drop the session)",
				filepath.Join(s.opts.DataDir, e.Name()), err)
		}
		s.opts.Logf("service: resumed session %s (%d cells)", sess.id, sess.cells)
	}
	return nil
}

// SessionID derives the content address of a grid spec: a hash of its
// checkpoint fingerprint, so equal grids share a session.
func SessionID(g gridspec.Grid) string {
	sum := sha256.Sum256([]byte(g.Normalize().Spec()))
	return hex.EncodeToString(sum[:])[:16]
}

// open returns the session for a spec, creating and starting it (and
// persisting spec.json) if it does not exist yet. The bool reports
// whether the session was newly created.
func (s *Server) open(g gridspec.Grid) (*session, bool, error) {
	g = g.Normalize()
	grid, err := g.Build()
	if err != nil {
		return nil, false, err
	}
	id := SessionID(g)

	s.mu.Lock()
	defer s.mu.Unlock()
	if sess, ok := s.sessions[id]; ok {
		return sess, false, nil
	}
	sess := &session{
		id: id, spec: g, dir: filepath.Join(s.opts.DataDir, id),
		state: "running", cells: len(grid.Cells),
	}
	// A directory still holding the two-ledger layout that preceded the
	// session journal is a session this build cannot read.
	for _, name := range []string{"cells.json", "leases.json"} {
		if _, err := os.Stat(filepath.Join(sess.dir, "session", name)); err == nil {
			return nil, false, fmt.Errorf("service: session directory %s holds session/%s from a retired session layout; delete the directory to restart the session",
				sess.dir, name)
		}
	}
	store := s.store(sess)
	run := &sessionRun{store: store, grid: grid, subs: make(map[int]chan []byte)}
	sess.run = run
	// Persist the spec first: a crash between here and the first cell
	// must leave a resumable directory, not an orphan.
	specJSON, err := json.MarshalIndent(g, "", "  ")
	if err != nil {
		return nil, false, err
	}
	if err := s.writeSpec(sess.dir, append(specJSON, '\n')); err != nil {
		return nil, false, err
	}
	// Cells already in the store (a resumed session) count as completed
	// before the run starts. A store this build cannot read — a retired
	// format, a corrupt journal — fails the open, so a restart names the
	// directory instead of starting a run that cannot resume.
	cells, err := store.Load(g.Spec())
	if err != nil {
		return nil, false, err
	}
	sess.completed = len(cells)
	s.sessions[id] = sess
	s.start(sess, run)
	return sess, true, nil
}

// writeSpec persists a session's spec.json atomically: it writes a temp
// file in the session directory, fsyncs it and renames it into place,
// then fsyncs the session directory and DataDir so both names survive a
// power cut. A crash leaves either no spec.json — New skips the
// directory, and resubmitting the spec recreates the session — or a
// whole one, never a torn file that would stop New for every session.
func (s *Server) writeSpec(dir string, data []byte) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	tmp := filepath.Join(dir, "spec.json.tmp")
	f, err := os.OpenFile(tmp, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	_, err = f.Write(data)
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(tmp, filepath.Join(dir, "spec.json"))
	}
	if err == nil {
		err = syncDir(dir)
	}
	if err == nil {
		err = syncDir(s.opts.DataDir)
	}
	return err
}

// syncDir fsyncs a directory, making the names created in it durable.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	err = d.Sync()
	if cerr := d.Close(); err == nil {
		err = cerr
	}
	return err
}

// store opens the journal in a session's directory, logging any torn
// final record it cuts off.
func (s *Server) store(sess *session) *mpic.FileGridStore {
	store := mpic.NewFileGridStore(filepath.Join(sess.dir, "session", "journal"))
	store.OnRecovery = func(reason error) {
		s.opts.Logf("service: session %s: recovered its journal: %v", sess.id, reason)
	}
	return store
}

// storeOf returns a session's store: the running session's own, or for
// a finished one a store reopened over its journal.
func (s *Server) storeOf(sess *session) *mpic.FileGridStore {
	sess.mu.Lock()
	run := sess.run
	sess.mu.Unlock()
	if run != nil {
		return run.store
	}
	return s.store(sess)
}

// start runs the session's grid — restoring what its store holds,
// executing the rest on the worker pool, quarantining cells that exhaust
// their retries — and resolves its terminal state.
func (s *Server) start(sess *session, run *sessionRun) {
	g := run.grid
	g.Workers = s.opts.Workers
	g.Store = run.store
	g.OnCellError = mpic.QuarantineCells
	g.Retries = s.opts.Retries
	g.Progress = sess.publish
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		err := s.runner.RunGrid(s.ctx, g, sess.count)
		if s.ctx.Err() != nil {
			// Shutdown, not completion: every finished cell is in the
			// journal; the session resumes next start.
			s.opts.Logf("service: session %s interrupted by shutdown", sess.id)
			return
		}
		sess.finish(err)
		st, _, _, _ := sess.status()
		s.opts.Logf("service: session %s %s", sess.id, st)
	}()
}

// Shutdown stops every session's run, waits for them up to the
// context's deadline, and closes the runner. In-flight cells are
// abandoned mid-trial; the sessions resume from their last completed
// cell on the next start.
func (s *Server) Shutdown(ctx context.Context) error {
	s.cancel()
	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
	case <-ctx.Done():
		return ctx.Err()
	}
	s.runner.Close()
	// Closing subscriber channels ends any SSE streams still attached.
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, sess := range s.sessions {
		sess.closeSubs()
	}
	return nil
}

// --- session state and events ---

// Event is the SSE wire form of one progress event. Progress streams
// are advisory and lossy (a slow client drops events rather than stall
// the engine); the session's result endpoint is the durable record.
type Event struct {
	// Event is the GridEvent name ("trial-start", "iteration",
	// "cell-done", ...) or the synthetic "session" lifecycle event.
	Event     string       `json:"event"`
	Cell      int          `json:"cell"`
	Cells     int          `json:"cells"`
	Key       mpic.GridKey `json:"key"`
	Trial     int          `json:"trial,omitempty"`
	Trials    int          `json:"trials,omitempty"`
	Iteration int          `json:"iteration,omitempty"`
	Attempt   int          `json:"attempt,omitempty"`
	Error     string       `json:"error,omitempty"`
	// Completed/Failed are session-wide cell counters, maintained on
	// cell-done and cell-failed events; State is set on "session"
	// lifecycle events ("running", "done", "failed").
	Completed int    `json:"completed"`
	Failed    int    `json:"failed,omitempty"`
	State     string `json:"state,omitempty"`
}

// publish fans one engine progress event out to the subscribers.
func (sess *session) publish(p mpic.GridProgress) {
	ev := Event{
		Event: p.Event.String(),
		Cell:  p.Cell, Cells: p.Cells, Key: p.Key,
		Trial: p.Trial, Trials: p.Trials,
		Iteration: p.Iteration, Attempt: p.Attempt,
	}
	if p.Err != nil {
		ev.Error = p.Err.Error()
	}
	sess.mu.Lock()
	ev.Completed, ev.Failed = sess.completed, len(sess.failures)
	sess.broadcastLocked(ev)
	sess.mu.Unlock()
}

// count records a cell the run finished. Restored cells are skipped:
// open counted them already.
func (sess *session) count(res mpic.GridCellResult) {
	if res.Restored {
		return
	}
	sess.mu.Lock()
	if res.Err != nil {
		sess.failures = append(sess.failures, failedCell{Cell: res.Index, Attempts: res.Attempts, Reason: res.Err.Error()})
	} else {
		sess.completed++
	}
	sess.mu.Unlock()
}

// finish resolves the session's terminal state from the run's return,
// broadcasts the lifecycle event, and drops what only a running session
// needs. A *mpic.GridFailure is a partial success — the session is
// "done" with failed cells reported — while any other error marks it
// "failed".
func (sess *session) finish(err error) {
	state, failure := "done", ""
	var gf *mpic.GridFailure
	if err != nil && !errors.As(err, &gf) {
		state, failure = "failed", err.Error()
	}
	sess.mu.Lock()
	sess.state, sess.failure = state, failure
	ev := Event{Event: "session", Cells: sess.cells,
		Completed: sess.completed, Failed: len(sess.failures), State: state}
	if failure != "" {
		ev.Error = failure
	}
	sess.broadcastLocked(ev)
	sess.closeSubsLocked()
	sess.run = nil
	sess.mu.Unlock()
}

func (sess *session) status() (state, failure string, completed, failed int) {
	sess.mu.Lock()
	defer sess.mu.Unlock()
	return sess.state, sess.failure, sess.completed, len(sess.failures)
}

// failedCells returns the quarantined cells in cell order.
func (sess *session) failedCells() []failedCell {
	sess.mu.Lock()
	out := append([]failedCell(nil), sess.failures...)
	sess.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].Cell < out[j].Cell })
	return out
}

// subscribe registers an SSE client. The returned channel is buffered;
// broadcast drops events for subscribers that fall behind. A nil
// channel means the session is already terminal — the caller should
// snapshot and return.
func (sess *session) subscribe() (int, <-chan []byte) {
	sess.mu.Lock()
	defer sess.mu.Unlock()
	if sess.state != "running" {
		return 0, nil
	}
	id := sess.run.nextSub
	sess.run.nextSub++
	ch := make(chan []byte, 1024)
	sess.run.subs[id] = ch
	return id, ch
}

func (sess *session) unsubscribe(id int) {
	sess.mu.Lock()
	defer sess.mu.Unlock()
	if sess.run == nil {
		return // finish closed the channel
	}
	if ch, ok := sess.run.subs[id]; ok {
		delete(sess.run.subs, id)
		close(ch)
	}
}

func (sess *session) broadcastLocked(ev Event) {
	if sess.run == nil || len(sess.run.subs) == 0 {
		return
	}
	data, err := json.Marshal(ev)
	if err != nil {
		return
	}
	for _, ch := range sess.run.subs {
		select {
		case ch <- data:
		default: // slow subscriber: drop, never stall the engine
		}
	}
}

func (sess *session) closeSubs() {
	sess.mu.Lock()
	defer sess.mu.Unlock()
	sess.closeSubsLocked()
}

func (sess *session) closeSubsLocked() {
	if sess.run == nil {
		return
	}
	for id, ch := range sess.run.subs {
		delete(sess.run.subs, id)
		close(ch)
	}
}

// --- HTTP surface ---

// sessionInfo is the JSON shape of a session in list/status responses.
type sessionInfo struct {
	ID        string        `json:"id"`
	Spec      gridspec.Grid `json:"spec"`
	Print     string        `json:"fingerprint"`
	State     string        `json:"state"`
	Error     string        `json:"error,omitempty"`
	Cells     int           `json:"cells"`
	Completed int           `json:"completed"`
	Failed    int           `json:"failed,omitempty"`
}

func (sess *session) info() sessionInfo {
	state, failure, completed, failed := sess.status()
	return sessionInfo{
		ID: sess.id, Spec: sess.spec, Print: sess.spec.Spec(),
		State: state, Error: failure,
		Cells: sess.cells, Completed: completed, Failed: failed,
	}
}

// maxSpecBytes caps a submitted spec's body. A spec is a handful of short
// strings; a grid of 65 536 cells fits in a few hundred bytes.
const maxSpecBytes = 1 << 20

// Handler returns the HTTP surface:
//
//	GET  /healthz               — liveness
//	GET  /sessions              — list sessions
//	POST /sessions              — submit a grid spec (gridspec.Grid JSON);
//	                              idempotent per spec, returns the session
//	GET  /sessions/{id}         — status
//	GET  /sessions/{id}/result  — completed cells (and failures) so far
//	GET  /sessions/{id}/events  — SSE progress stream
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
	})
	mux.HandleFunc("/sessions", s.handleSessions)
	mux.HandleFunc("/sessions/", s.handleSession)
	return mux
}

func (s *Server) handleSessions(w http.ResponseWriter, r *http.Request) {
	switch r.Method {
	case http.MethodGet:
		s.mu.Lock()
		infos := make([]sessionInfo, 0, len(s.sessions))
		for _, sess := range s.sessions {
			infos = append(infos, sess.info())
		}
		s.mu.Unlock()
		sort.Slice(infos, func(i, j int) bool { return infos[i].ID < infos[j].ID })
		writeJSON(w, http.StatusOK, infos)
	case http.MethodPost:
		var g gridspec.Grid
		dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxSpecBytes))
		dec.DisallowUnknownFields()
		if err := dec.Decode(&g); err != nil {
			code := http.StatusBadRequest
			var tooLarge *http.MaxBytesError
			if errors.As(err, &tooLarge) {
				code = http.StatusRequestEntityTooLarge
			}
			httpError(w, code, fmt.Errorf("parsing spec: %w", err))
			return
		}
		sess, created, err := s.open(g)
		if err != nil {
			httpError(w, http.StatusBadRequest, err)
			return
		}
		code := http.StatusOK
		if created {
			code = http.StatusCreated
			s.opts.Logf("service: created session %s (%d cells)", sess.id, sess.cells)
		}
		writeJSON(w, code, sess.info())
	default:
		httpError(w, http.StatusMethodNotAllowed, fmt.Errorf("method %s not allowed", r.Method))
	}
}

func (s *Server) handleSession(w http.ResponseWriter, r *http.Request) {
	rest := strings.TrimPrefix(r.URL.Path, "/sessions/")
	id, sub, _ := strings.Cut(rest, "/")
	s.mu.Lock()
	sess, ok := s.sessions[id]
	s.mu.Unlock()
	if !ok {
		httpError(w, http.StatusNotFound, fmt.Errorf("no session %q", id))
		return
	}
	if r.Method != http.MethodGet {
		httpError(w, http.StatusMethodNotAllowed, fmt.Errorf("method %s not allowed", r.Method))
		return
	}
	switch sub {
	case "":
		writeJSON(w, http.StatusOK, sess.info())
	case "result":
		s.handleResult(w, sess)
	case "events":
		s.handleEvents(w, r, sess)
	default:
		httpError(w, http.StatusNotFound, fmt.Errorf("no endpoint %q", sub))
	}
}

// resultRow is one completed cell of a session's result.
type resultRow struct {
	Index int            `json:"index"`
	Key   mpic.GridKey   `json:"key"`
	Cell  mpic.SweepCell `json:"cell"`
}

// handleResult reads the durable record — every completed cell in the
// journal, in grid order (the deterministic identity, not the
// nondeterministic completion order) — plus the session's quarantined
// cells.
func (s *Server) handleResult(w http.ResponseWriter, sess *session) {
	cells, err := s.storeOf(sess).Load(sess.spec.Spec())
	if err != nil {
		httpError(w, http.StatusInternalServerError, err)
		return
	}
	failures := sess.failedCells()
	sort.Slice(cells, func(i, j int) bool { return cells[i].Index < cells[j].Index })
	rows := make([]resultRow, 0, len(cells))
	for _, c := range cells {
		rows = append(rows, resultRow{Index: c.Index, Key: c.Key, Cell: c.Cell})
	}
	state, _, _, _ := sess.status()
	writeJSON(w, http.StatusOK, map[string]interface{}{
		"id":       sess.id,
		"state":    state,
		"cells":    sess.cells,
		"rows":     rows,
		"failures": failures,
		"complete": len(rows)+len(failures) == sess.cells,
	})
}

// handleEvents streams the session's progress as Server-Sent Events:
// one "progress" event per engine callback, a final "session" event on
// completion, comment heartbeats to keep idle connections alive. The
// stream starts with a status snapshot so late subscribers know where
// the session stands; it ends when the session does.
func (s *Server) handleEvents(w http.ResponseWriter, r *http.Request, sess *session) {
	flusher, ok := w.(http.Flusher)
	if !ok {
		httpError(w, http.StatusInternalServerError, fmt.Errorf("response writer does not support streaming"))
		return
	}
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.Header().Set("Connection", "keep-alive")
	w.WriteHeader(http.StatusOK)

	writeEvent := func(name string, v interface{}) bool {
		data, err := json.Marshal(v)
		if err != nil {
			return false
		}
		if _, err := fmt.Fprintf(w, "event: %s\ndata: %s\n\n", name, data); err != nil {
			return false
		}
		flusher.Flush()
		return true
	}
	if !writeEvent("status", sess.info()) {
		return
	}
	subID, ch := sess.subscribe()
	if ch == nil {
		// Already terminal: the snapshot said so; close the stream.
		return
	}
	defer sess.unsubscribe(subID)

	heartbeat := time.NewTicker(15 * time.Second)
	defer heartbeat.Stop()
	for {
		select {
		case <-r.Context().Done():
			return
		case <-heartbeat.C:
			if _, err := fmt.Fprint(w, ": keepalive\n\n"); err != nil {
				return
			}
			flusher.Flush()
		case data, ok := <-ch:
			if !ok {
				return // session finished (terminal event was the last send)
			}
			if _, err := fmt.Fprintf(w, "event: progress\ndata: %s\n\n", data); err != nil {
				return
			}
			flusher.Flush()
		}
	}
}

func writeJSON(w http.ResponseWriter, code int, v interface{}) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

func httpError(w http.ResponseWriter, code int, err error) {
	writeJSON(w, code, map[string]string{"error": err.Error()})
}
