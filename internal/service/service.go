// Package service is the grid execution service behind cmd/mpicserve: a
// long-lived HTTP server that accepts grid specifications (the same
// gridspec.Grid struct the CLIs parse from flags), runs each as a
// lease-sharded durable session under a data directory, and streams the
// engine's fine-grained progress to any number of clients over
// Server-Sent Events.
//
// Sessions are content-addressed: the session ID is a hash of the
// grid's checkpoint fingerprint, so submitting the same spec twice
// attaches to the same session instead of re-running it, and a server
// restarted over the same data directory resumes every unfinished
// session from its lease store. Determinism makes all of this safe —
// each cell is a pure function of the spec, so resumed, re-submitted,
// or concurrently sharded sessions all converge on bit-identical
// results.
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
	// DataDir/<id>/ as a spec.json plus a lease-store directory.
	DataDir string
	// Workers is how many lease-sharded workers each session runs with
	// (0 means 2).
	Workers int
	// LeaseTTL bounds how long a crashed worker's cells stay leased
	// (0 means 30s).
	LeaseTTL time.Duration
	// Retries gives every failed cell that many extra attempts before
	// it is quarantined (the session still finishes; failed cells are
	// reported per session).
	Retries int
	// Logf receives one line per lifecycle event (nil discards).
	Logf func(format string, args ...interface{})
}

func (o Options) withDefaults() Options {
	if o.Workers <= 0 {
		o.Workers = 2
	}
	if o.LeaseTTL <= 0 {
		o.LeaseTTL = 30 * time.Second
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

	// ctx cancels every session's workers; Shutdown cancels it and
	// waits for wg (all session supervisors and their workers).
	ctx    context.Context
	cancel context.CancelFunc
	wg     sync.WaitGroup

	mu       sync.Mutex
	sessions map[string]*session
}

// session is one grid run: a spec, its lease store, and the fan-out of
// progress events to SSE subscribers.
type session struct {
	id    string
	spec  gridspec.Grid // normalized submission
	print string        // checkpoint fingerprint (spec.Spec())
	dir   string
	store *mpic.DirLeaseStore
	grid  mpic.Grid

	mu        sync.Mutex
	state     string // "running", "done", "failed"
	failure   string
	completed int // cells finished (restored + executed) across workers
	failed    int // cells quarantined
	subs      map[int]chan []byte
	nextSub   int
}

// New creates a server over a data directory and resumes every
// unfinished session found in it. Call Shutdown to stop the workers.
func New(opts Options) (*Server, error) {
	opts = opts.withDefaults()
	if opts.DataDir == "" {
		return nil, fmt.Errorf("service: Options.DataDir is required")
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
// their sessions. A session whose store already holds every cell drains
// immediately and lands in state "done" without re-running anything.
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
		s.opts.Logf("service: resumed session %s (%d cells)", sess.id, len(sess.grid.Cells))
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
	dir := filepath.Join(s.opts.DataDir, id)
	store := mpic.NewDirLeaseStore(filepath.Join(dir, "session"))
	sess := &session{
		id: id, spec: g, print: g.Spec(), dir: dir,
		store: store, grid: grid,
		state: "running",
		subs:  make(map[int]chan []byte),
	}
	// Persist the spec first: a crash between here and the first cell
	// must leave a resumable directory, not an orphan.
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, false, err
	}
	specJSON, err := json.MarshalIndent(g, "", "  ")
	if err != nil {
		return nil, false, err
	}
	if err := os.WriteFile(filepath.Join(dir, "spec.json"), append(specJSON, '\n'), 0o644); err != nil {
		return nil, false, err
	}
	// Cells already in the store (a resumed session) count as completed
	// before any worker starts. A store this build cannot read — a
	// retired format, a corrupt journal — fails the open, so a restart
	// names the directory instead of starting workers that cannot run.
	cells, err := store.Load(g.Spec())
	if err != nil {
		return nil, false, err
	}
	sess.completed = len(cells)
	if failed, err := store.Failures(g.Spec()); err == nil {
		sess.failed = len(failed)
	}
	s.sessions[id] = sess
	s.start(sess)
	return sess, true, nil
}

// start launches the session's worker pool and its supervisor.
func (s *Server) start(sess *session) {
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		workers := s.opts.Workers
		errs := make([]error, workers)
		var wg sync.WaitGroup
		for i := 0; i < workers; i++ {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				errs[i] = s.runWorker(sess, i)
			}(i)
		}
		wg.Wait()
		if s.ctx.Err() != nil {
			// Shutdown, not completion: leases were released by the
			// workers' deferred cleanup; the session resumes next start.
			s.opts.Logf("service: session %s interrupted by shutdown", sess.id)
			return
		}
		sess.finish(errs)
		st, _, _, _ := sess.status()
		s.opts.Logf("service: session %s %s", sess.id, st)
	}()
}

// runWorker is one lease-sharded worker of a session. Its grid shares
// the session's cells but carries worker-scoped progress and sink
// closures; the event hub serializes the fan-in.
func (s *Server) runWorker(sess *session, i int) error {
	worker := fmt.Sprintf("pid%d-w%d", os.Getpid(), i)
	g := sess.grid
	g.OnCellError = mpic.QuarantineCells
	if s.opts.Retries > 0 {
		g.Retry = mpic.RetryPolicy{MaxAttempts: s.opts.Retries + 1, JitterSeed: sess.spec.Seed}
	}
	g.Progress = func(p mpic.GridProgress) { sess.publish(worker, p) }
	sink := func(res mpic.GridCellResult) { sess.count(res) }
	return s.runner.RunGridSharded(s.ctx, g, sess.store, mpic.ShardOptions{
		Worker:   worker,
		LeaseTTL: s.opts.LeaseTTL,
	}, sink)
}

// Shutdown stops every worker (they release their leases on the way
// out), waits for them up to the context's deadline, and closes the
// runner. In-flight cells are abandoned mid-trial; the sessions resume
// from their last completed cell on the next start.
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
	Event string `json:"event"`
	// Worker is the lease name of the worker that produced the event.
	Worker    string       `json:"worker,omitempty"`
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
func (sess *session) publish(worker string, p mpic.GridProgress) {
	ev := Event{
		Event:  p.Event.String(),
		Worker: worker,
		Cell:   p.Cell, Cells: p.Cells, Key: p.Key,
		Trial: p.Trial, Trials: p.Trials,
		Iteration: p.Iteration, Attempt: p.Attempt,
	}
	if p.Err != nil {
		ev.Error = p.Err.Error()
	}
	sess.mu.Lock()
	ev.Completed, ev.Failed = sess.completed, sess.failed
	sess.broadcastLocked(ev)
	sess.mu.Unlock()
}

// count records a finished cell from a worker's sink.
func (sess *session) count(res mpic.GridCellResult) {
	sess.mu.Lock()
	if res.Err != nil {
		sess.failed++
	} else {
		sess.completed++
	}
	sess.mu.Unlock()
}

// finish resolves the session's terminal state from its workers'
// returns and broadcasts the lifecycle event. A *mpic.GridFailure is a
// partial success — the session is "done" with failed cells reported —
// while any other error marks it "failed".
func (sess *session) finish(errs []error) {
	state, failure := "done", ""
	for _, err := range errs {
		var gf *mpic.GridFailure
		if err == nil || errors.As(err, &gf) {
			continue
		}
		state, failure = "failed", err.Error()
		break
	}
	sess.mu.Lock()
	sess.state, sess.failure = state, failure
	ev := Event{Event: "session", Cells: len(sess.grid.Cells),
		Completed: sess.completed, Failed: sess.failed, State: state}
	if failure != "" {
		ev.Error = failure
	}
	sess.broadcastLocked(ev)
	sess.closeSubsLocked()
	sess.mu.Unlock()
}

func (sess *session) status() (state, failure string, completed, failed int) {
	sess.mu.Lock()
	defer sess.mu.Unlock()
	return sess.state, sess.failure, sess.completed, sess.failed
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
	id := sess.nextSub
	sess.nextSub++
	ch := make(chan []byte, 1024)
	sess.subs[id] = ch
	return id, ch
}

func (sess *session) unsubscribe(id int) {
	sess.mu.Lock()
	defer sess.mu.Unlock()
	if ch, ok := sess.subs[id]; ok {
		delete(sess.subs, id)
		close(ch)
	}
}

func (sess *session) broadcastLocked(ev Event) {
	if len(sess.subs) == 0 {
		return
	}
	data, err := json.Marshal(ev)
	if err != nil {
		return
	}
	for _, ch := range sess.subs {
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
	for id, ch := range sess.subs {
		delete(sess.subs, id)
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
	Leases    []mpic.Lease  `json:"leases,omitempty"`
}

func (s *Server) info(sess *session, withLeases bool) sessionInfo {
	state, failure, completed, failed := sess.status()
	info := sessionInfo{
		ID: sess.id, Spec: sess.spec, Print: sess.print,
		State: state, Error: failure,
		Cells: len(sess.grid.Cells), Completed: completed, Failed: failed,
	}
	if withLeases {
		if leases, err := sess.store.Leases(sess.print); err == nil {
			info.Leases = leases
		}
	}
	return info
}

// Handler returns the HTTP surface:
//
//	GET  /healthz               — liveness
//	GET  /sessions              — list sessions
//	POST /sessions              — submit a grid spec (gridspec.Grid JSON);
//	                              idempotent per spec, returns the session
//	GET  /sessions/{id}         — status, including active leases
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
			infos = append(infos, s.info(sess, false))
		}
		s.mu.Unlock()
		sort.Slice(infos, func(i, j int) bool { return infos[i].ID < infos[j].ID })
		writeJSON(w, http.StatusOK, infos)
	case http.MethodPost:
		var g gridspec.Grid
		dec := json.NewDecoder(r.Body)
		dec.DisallowUnknownFields()
		if err := dec.Decode(&g); err != nil {
			httpError(w, http.StatusBadRequest, fmt.Errorf("parsing spec: %w", err))
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
			s.opts.Logf("service: created session %s (%d cells)", sess.id, len(sess.grid.Cells))
		}
		writeJSON(w, code, s.info(sess, false))
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
		writeJSON(w, http.StatusOK, s.info(sess, true))
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

// handleResult reads the durable record: every completed cell in the
// lease store (in grid order — the deterministic identity, not the
// nondeterministic completion order) plus the quarantined failures.
func (s *Server) handleResult(w http.ResponseWriter, sess *session) {
	cells, err := sess.store.Load(sess.print)
	if err != nil {
		httpError(w, http.StatusInternalServerError, err)
		return
	}
	failures, err := sess.store.Failures(sess.print)
	if err != nil {
		httpError(w, http.StatusInternalServerError, err)
		return
	}
	sort.Slice(cells, func(i, j int) bool { return cells[i].Index < cells[j].Index })
	rows := make([]resultRow, 0, len(cells))
	for _, c := range cells {
		rows = append(rows, resultRow{Index: c.Index, Key: c.Key, Cell: c.Cell})
	}
	state, _, _, _ := sess.status()
	writeJSON(w, http.StatusOK, map[string]interface{}{
		"id":       sess.id,
		"state":    state,
		"cells":    len(sess.grid.Cells),
		"rows":     rows,
		"failures": failures,
		"complete": len(rows)+len(failures) == len(sess.grid.Cells),
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
	if !writeEvent("status", s.info(sess, false)) {
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
