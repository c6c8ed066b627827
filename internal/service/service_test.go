package service

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"mpic"
	"mpic/internal/gridspec"
)

// smallSpec is a 2-cell grid that finishes in well under a second.
func smallSpec() gridspec.Grid {
	return gridspec.Grid{
		Workload: "random", Noise: "random",
		N: "4", Schemes: "A", Rates: "0,0.001",
		Trials: 1, Seed: 1, IterFactor: 10,
	}
}

func newTestServer(t testing.TB, opts Options) (*Server, *httptest.Server) {
	t.Helper()
	if opts.DataDir == "" {
		opts.DataDir = t.TempDir()
	}
	s, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		if err := s.Shutdown(ctx); err != nil {
			t.Errorf("shutdown: %v", err)
		}
	})
	return s, ts
}

func postSpec(t *testing.T, url string, g gridspec.Grid) (sessionInfo, int) {
	t.Helper()
	body, err := json.Marshal(g)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url+"/sessions", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var info sessionInfo
	if err := json.NewDecoder(resp.Body).Decode(&info); err != nil {
		t.Fatalf("decoding response (status %d): %v", resp.StatusCode, err)
	}
	return info, resp.StatusCode
}

// waitDone polls the status endpoint until the session leaves "running".
func waitDone(t *testing.T, url, id string) sessionInfo {
	t.Helper()
	deadline := time.Now().Add(60 * time.Second)
	for time.Now().Before(deadline) {
		resp, err := http.Get(url + "/sessions/" + id)
		if err != nil {
			t.Fatal(err)
		}
		var info sessionInfo
		err = json.NewDecoder(resp.Body).Decode(&info)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if info.State != "running" {
			return info
		}
		time.Sleep(20 * time.Millisecond)
	}
	t.Fatal("session did not finish in time")
	return sessionInfo{}
}

type resultBody struct {
	ID       string       `json:"id"`
	State    string       `json:"state"`
	Cells    int          `json:"cells"`
	Rows     []resultRow  `json:"rows"`
	Failures []failedCell `json:"failures"`
	Complete bool         `json:"complete"`
}

func getResult(t *testing.T, url, id string) resultBody {
	t.Helper()
	resp, err := http.Get(url + "/sessions/" + id + "/result")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var res resultBody
	if err := json.NewDecoder(resp.Body).Decode(&res); err != nil {
		t.Fatal(err)
	}
	return res
}

// sequentialCells runs the same spec through the plain sequential
// engine — the determinism baseline every service run must match.
func sequentialCells(t *testing.T, g gridspec.Grid) []mpic.SweepCell {
	t.Helper()
	grid, err := g.Normalize().Build()
	if err != nil {
		t.Fatal(err)
	}
	grid.Workers = 1
	runner := mpic.NewRunner()
	defer runner.Close()
	cells := make([]mpic.SweepCell, len(grid.Cells))
	err = runner.RunGrid(context.Background(), grid, func(res mpic.GridCellResult) {
		cells[res.Index] = res.Cell
	})
	if err != nil {
		t.Fatal(err)
	}
	return cells
}

// TestServiceSubmitRunResult drives the primary flow: submit a grid
// over HTTP, wait for the session's workers to finish it, and check the
// result rows are bit-identical to a sequential run of the same spec.
func TestServiceSubmitRunResult(t *testing.T) {
	_, ts := newTestServer(t, Options{Workers: 2})
	info, code := postSpec(t, ts.URL, smallSpec())
	if code != http.StatusCreated {
		t.Fatalf("submit status = %d, want 201", code)
	}
	if info.ID == "" || info.Cells != 2 {
		t.Fatalf("submit response = %+v", info)
	}
	// Idempotent resubmission: the same spec attaches to the session.
	again, code := postSpec(t, ts.URL, smallSpec())
	if code != http.StatusOK || again.ID != info.ID {
		t.Fatalf("resubmit = %d %+v, want 200 with id %s", code, again, info.ID)
	}

	final := waitDone(t, ts.URL, info.ID)
	if final.State != "done" || final.Completed != 2 || final.Failed != 0 {
		t.Fatalf("final status = %+v", final)
	}
	res := getResult(t, ts.URL, info.ID)
	if !res.Complete || len(res.Rows) != 2 || len(res.Failures) != 0 {
		t.Fatalf("result = %+v", res)
	}
	want := sequentialCells(t, smallSpec())
	for _, row := range res.Rows {
		if !reflect.DeepEqual(row.Cell, want[row.Index]) {
			t.Errorf("cell %d differs from sequential run:\nservice:    %+v\nsequential: %+v",
				row.Index, row.Cell, want[row.Index])
		}
	}
}

// TestServiceSSEStream subscribes to a session's event stream and reads
// it to the end: progress events arrive as SSE frames, and the stream
// terminates with the "session" lifecycle event once the grid is done.
func TestServiceSSEStream(t *testing.T) {
	_, ts := newTestServer(t, Options{Workers: 2})
	// A grid heavy enough that the subscriber attaches while cells are
	// still running (a 2-cell flash grid can finish before the GET).
	spec := gridspec.Grid{
		Workload: "random", Noise: "random",
		N: "5,6", Schemes: "A", Rates: "0,0.002",
		Trials: 3, Seed: 42, IterFactor: 150,
	}
	info, _ := postSpec(t, ts.URL, spec)

	resp, err := http.Get(ts.URL + "/sessions/" + info.ID + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("content type = %q, want text/event-stream", ct)
	}
	var sawStatus, sawCellDone, sawTerminal bool
	scanner := bufio.NewScanner(resp.Body)
	scanner.Buffer(make([]byte, 0, 64*1024), 1024*1024)
	var event string
	for scanner.Scan() {
		line := scanner.Text()
		switch {
		case strings.HasPrefix(line, "event: "):
			event = strings.TrimPrefix(line, "event: ")
		case strings.HasPrefix(line, "data: "):
			data := strings.TrimPrefix(line, "data: ")
			switch event {
			case "status":
				sawStatus = true
			case "progress":
				var ev Event
				if err := json.Unmarshal([]byte(data), &ev); err != nil {
					t.Fatalf("bad event payload %q: %v", data, err)
				}
				switch ev.Event {
				case "cell-done":
					sawCellDone = true
				case "session":
					sawTerminal = true
					if ev.State != "done" || ev.Completed != 4 {
						t.Errorf("terminal event = %+v", ev)
					}
				}
			}
		}
	}
	// The stream ends when the session finishes; reaching EOF without a
	// transport error is the "stream closed on completion" contract.
	if err := scanner.Err(); err != nil {
		t.Fatalf("reading stream: %v", err)
	}
	if !sawStatus || !sawCellDone || !sawTerminal {
		t.Fatalf("stream missing frames: status=%v cell-done=%v terminal=%v",
			sawStatus, sawCellDone, sawTerminal)
	}
	// A subscriber joining after completion gets the snapshot and EOF.
	resp, err = http.Get(ts.URL + "/sessions/" + info.ID + "/events")
	if err != nil {
		t.Fatal(err)
	}
	lateBytes, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(lateBytes), `"state":"done"`) {
		t.Fatalf("late subscriber snapshot missing terminal state:\n%s", lateBytes)
	}
}

// TestServiceRestartResume stops a server mid-grid and starts a new one
// over the same data directory: the unfinished session is resumed from
// its journal and completes with results identical to a sequential
// run. (The chaos soak covers the harsher kill-mid-cell path; this test
// pins the graceful restart-and-resume flow end to end.)
func TestServiceRestartResume(t *testing.T) {
	dataDir := t.TempDir()
	spec := gridspec.Grid{
		Workload: "random", Noise: "random",
		N: "4,5,6", Schemes: "A", Rates: "0,0.002",
		Trials: 3, Seed: 3, IterFactor: 200,
	}

	first, err := New(Options{DataDir: dataDir, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	ts1 := httptest.NewServer(first.Handler())
	info, code := postSpec(t, ts1.URL, spec)
	if code != http.StatusCreated {
		t.Fatalf("submit status = %d", code)
	}
	// Shut down almost immediately — with 4 two-trial cells the workers
	// are still mid-grid. (If they do finish first, the resume below
	// degenerates to restoring a complete session, which must also work.)
	time.Sleep(30 * time.Millisecond)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := first.Shutdown(ctx); err != nil {
		t.Fatalf("first shutdown: %v", err)
	}
	ts1.Close()

	store := mpic.NewFileGridStore(filepath.Join(dataDir, info.ID, "session", "journal"))
	done, err := store.Load(info.Print)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("first server completed %d of %d cells before shutdown", len(done), info.Cells)

	second, err := New(Options{DataDir: dataDir, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	ts2 := httptest.NewServer(second.Handler())
	t.Cleanup(func() {
		ts2.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		if err := second.Shutdown(ctx); err != nil {
			t.Errorf("second shutdown: %v", err)
		}
	})
	final := waitDone(t, ts2.URL, info.ID)
	if final.State != "done" || final.Completed != info.Cells {
		t.Fatalf("resumed session final status = %+v", final)
	}
	res := getResult(t, ts2.URL, info.ID)
	if !res.Complete || len(res.Rows) != info.Cells {
		t.Fatalf("resumed result = %+v", res)
	}
	want := sequentialCells(t, spec)
	for _, row := range res.Rows {
		if !reflect.DeepEqual(row.Cell, want[row.Index]) {
			t.Errorf("cell %d differs after restart:\nservice:    %+v\nsequential: %+v",
				row.Index, row.Cell, want[row.Index])
		}
	}
}

// failNoise is a noiseless model whose noisy cells fail to wire, so the
// service quarantines every cell of a session at a rate above zero.
type failNoise struct{ rate float64 }

func (failNoise) NoiseName() string                    { return "svc-test-failwire" }
func (failNoise) WithRate(rate float64) mpic.NoiseSpec { return failNoise{rate} }
func (n failNoise) Wire(env mpic.NoiseEnv) (mpic.WiredNoise, error) {
	if n.rate > 0 {
		return mpic.WiredNoise{}, errors.New("injected wiring failure")
	}
	return mpic.RandomNoise(0).Wire(env)
}

// failingNoise registers failNoise once per test binary.
var failingNoise = sync.OnceValue(func() error {
	return mpic.RegisterNoise("svc-test-failwire", func(rate float64) mpic.NoiseSpec { return failNoise{rate} })
})

// sessionAnswers is everything the HTTP surface says about one session.
type sessionAnswers struct {
	List, Status, Result, Events string
}

func getBody(t *testing.T, url string) string {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s = %d: %s", url, resp.StatusCode, data)
	}
	return string(data)
}

func answers(t *testing.T, url, id string) sessionAnswers {
	t.Helper()
	return sessionAnswers{
		List:   getBody(t, url+"/sessions"),
		Status: getBody(t, url+"/sessions/"+id),
		Result: getBody(t, url+"/sessions/"+id+"/result"),
		Events: getBody(t, url+"/sessions/"+id+"/events"),
	}
}

// finishedRun reports whether the server holds the session and, if so,
// whether it still holds its running state (grid, store, subscribers).
func finishedRun(s *Server, id string) (held, running bool) {
	s.mu.Lock()
	sess, ok := s.sessions[id]
	s.mu.Unlock()
	if !ok {
		return false, false
	}
	sess.mu.Lock()
	defer sess.mu.Unlock()
	return true, sess.run != nil
}

// TestServiceFinishedSessionSummary pins the finished-session shape: once
// a session is terminal the server keeps no grid, store or
// subscriber map for it, and every endpoint still answers from the
// summary and the reopened store — the same fingerprint, cell count,
// rows, failures and completeness, byte for byte the answers a server
// restarted over the completed data directory gives.
func TestServiceFinishedSessionSummary(t *testing.T) {
	if err := failingNoise(); err != nil {
		t.Fatal(err)
	}
	dataDir := t.TempDir()
	spec := gridspec.Grid{Noise: "svc-test-failwire", N: "4", Schemes: "A", Rates: "0,0.001", Trials: 1, Seed: 5, IterFactor: 10}
	want := spec.Normalize().Spec()

	first, err := New(Options{DataDir: dataDir, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	ts1 := httptest.NewServer(first.Handler())
	info, code := postSpec(t, ts1.URL, spec)
	if code != http.StatusCreated {
		t.Fatalf("submit = %d %+v", code, info)
	}
	final := waitDone(t, ts1.URL, info.ID)
	if final.State != "done" || final.Print != want || final.Cells != 2 || final.Completed != 1 || final.Failed != 1 {
		t.Fatalf("final status = %+v", final)
	}
	if held, running := finishedRun(first, info.ID); !held || running {
		t.Fatalf("finished session: held %v, still holding its running state %v", held, running)
	}
	got := answers(t, ts1.URL, info.ID)
	res := getResult(t, ts1.URL, info.ID)
	if res.State != "done" || res.Cells != 2 || !res.Complete || len(res.Rows) != 1 || res.Rows[0].Index != 0 ||
		len(res.Failures) != 1 || res.Failures[0].Cell != 1 {
		t.Fatalf("finished result = %+v", res)
	}
	if !strings.Contains(got.Events, "event: status") || !strings.Contains(got.Events, `"state":"done"`) {
		t.Fatalf("finished event stream:\n%s", got.Events)
	}
	if !strings.Contains(got.List, `"fingerprint": "`+want+`"`) {
		t.Fatalf("session list misses the fingerprint:\n%s", got.List)
	}
	ts1.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := first.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}

	// A restarted server takes the completed session through the same
	// path and gives the same answers.
	second, ts2 := newTestServer(t, Options{DataDir: dataDir, Workers: 2})
	waitDone(t, ts2.URL, info.ID)
	if held, running := finishedRun(second, info.ID); !held || running {
		t.Fatalf("resumed finished session: held %v, still holding its running state %v", held, running)
	}
	if again := answers(t, ts2.URL, info.ID); again != got {
		t.Errorf("restarted server answers differently:\nfirst:  %+v\nsecond: %+v", got, again)
	}
}

// TestServiceLogsJournalRecovery pins the service's use of
// FileGridStore.OnRecovery: a session journal whose last record was torn
// is cut back on restart, the log names the session, and the session
// re-runs the lost cell to the same result.
func TestServiceLogsJournalRecovery(t *testing.T) {
	dataDir := t.TempDir()
	first, ts1 := newTestServer(t, Options{DataDir: dataDir, Workers: 2})
	info, _ := postSpec(t, ts1.URL, smallSpec())
	if final := waitDone(t, ts1.URL, info.ID); final.State != "done" {
		t.Fatalf("final status = %+v", final)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := first.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
	journal := filepath.Join(dataDir, info.ID, "session", "journal")
	fi, err := os.Stat(journal)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(journal, fi.Size()-10); err != nil {
		t.Fatal(err)
	}

	var mu sync.Mutex
	var logs []string
	_, ts2 := newTestServer(t, Options{DataDir: dataDir, Workers: 2, Logf: func(format string, args ...interface{}) {
		mu.Lock()
		defer mu.Unlock()
		logs = append(logs, fmt.Sprintf(format, args...))
	}})
	if final := waitDone(t, ts2.URL, info.ID); final.State != "done" || final.Completed != 2 {
		t.Fatalf("resumed status = %+v", final)
	}
	mu.Lock()
	var recovered []string
	for _, l := range logs {
		if strings.Contains(l, info.ID) && strings.Contains(l, "torn final record") {
			recovered = append(recovered, l)
		}
	}
	mu.Unlock()
	if len(recovered) != 1 {
		t.Errorf("recovery log lines naming the session: %q (all: %q)", recovered, logs)
	}
	want := sequentialCells(t, smallSpec())
	res := getResult(t, ts2.URL, info.ID)
	if !res.Complete || len(res.Rows) != 2 {
		t.Fatalf("result after recovery = %+v", res)
	}
	for _, row := range res.Rows {
		if !reflect.DeepEqual(row.Cell, want[row.Index]) {
			t.Errorf("cell %d differs from sequential run after recovery", row.Index)
		}
	}
}

// TestServiceRejectsRetiredSpec pins the restart path for a spec this
// build can no longer run: a persisted spec.json naming the retired
// "incremental" hash mode fails New with an error that names the session
// directory and the mode, and tells the operator how to recover.
func TestServiceRejectsRetiredSpec(t *testing.T) {
	dataDir := t.TempDir()
	dir := filepath.Join(dataDir, "0123456789abcdef")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	spec := `{"workload":"random","noise":"random","n":"4","schemes":"A","rates":"0.001","trials":1,"seed":1,"iterfactor":10,"hashmode":"incremental"}`
	if err := os.WriteFile(filepath.Join(dir, "spec.json"), []byte(spec), 0o644); err != nil {
		t.Fatal(err)
	}
	s, err := New(Options{DataDir: dataDir, Workers: 1})
	if err == nil {
		s.Shutdown(context.Background())
		t.Fatal("New resumed a session with a retired hash mode")
	}
	for _, want := range []string{dir, `"incremental"`, "delete the directory and restart"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("error %q does not mention %s", err, want)
		}
	}
}

// TestServiceRejectsRetiredSessionLayout pins the restart path for a
// session directory written before the session journal: a session whose
// store still holds the two-ledger cells.json/leases.json layout fails
// New with an error that names the directory and says how to recover.
func TestServiceRejectsRetiredSessionLayout(t *testing.T) {
	dataDir := t.TempDir()
	g := gridspec.Grid{N: "4", Schemes: "A", Rates: "0.001", Trials: 1, IterFactor: 10}
	dir := filepath.Join(dataDir, SessionID(g))
	if err := os.MkdirAll(filepath.Join(dir, "session"), 0o755); err != nil {
		t.Fatal(err)
	}
	spec, err := json.Marshal(g.Normalize())
	if err != nil {
		t.Fatal(err)
	}
	for name, data := range map[string]string{
		"spec.json":          string(spec),
		"session/cells.json": `{"Version":3,"Spec":"x","Checksum":"00","Cells":[]}`,
	} {
		if err := os.WriteFile(filepath.Join(dir, name), []byte(data), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	s, err := New(Options{DataDir: dataDir, Workers: 1})
	if err == nil {
		s.Shutdown(context.Background())
		t.Fatal("New resumed a session in the retired two-ledger layout")
	}
	for _, want := range []string{dir, "cells.json", "delete the directory and restart"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("error %q does not mention %s", err, want)
		}
	}
}

// TestServiceSkipsUnwrittenSpec pins the crash window of the spec write:
// a session directory holding only the temp file of a spec.json that was
// never renamed into place is skipped by New, and resubmitting that spec
// creates the session and runs it.
func TestServiceSkipsUnwrittenSpec(t *testing.T) {
	dataDir := t.TempDir()
	g := smallSpec()
	dir := filepath.Join(dataDir, SessionID(g))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "spec.json.tmp"), []byte(`{"workload":"ran`), 0o644); err != nil {
		t.Fatal(err)
	}
	s, ts := newTestServer(t, Options{DataDir: dataDir, Workers: 1})
	if n := len(s.sessions); n != 0 {
		t.Fatalf("New resumed %d sessions from a directory without spec.json", n)
	}
	info, code := postSpec(t, ts.URL, g)
	if code != http.StatusCreated {
		t.Fatalf("resubmit status = %d, want 201", code)
	}
	if info.ID != SessionID(g) {
		t.Fatalf("resubmitted session id = %s, want %s", info.ID, SessionID(g))
	}
	if done := waitDone(t, ts.URL, info.ID); done.State != "done" {
		t.Fatalf("resubmitted session ended %q, want done", done.State)
	}
	if _, err := os.Stat(filepath.Join(dir, "spec.json")); err != nil {
		t.Errorf("resubmitted session has no spec.json: %v", err)
	}
	if _, err := os.Stat(filepath.Join(dir, "spec.json.tmp")); !os.IsNotExist(err) {
		t.Errorf("spec.json.tmp left behind after the write: %v", err)
	}
}

// TestServiceRejectsNegativeRetries pins the Options check: a negative
// retry budget fails New, the way an empty DataDir does, instead of
// failing every session's grid at run time.
func TestServiceRejectsNegativeRetries(t *testing.T) {
	s, err := New(Options{DataDir: t.TempDir(), Retries: -1})
	if err == nil {
		s.Shutdown(context.Background())
		t.Fatal("New accepted Retries -1")
	}
	if !strings.Contains(err.Error(), "Retries") {
		t.Errorf("error %q does not name Options.Retries", err)
	}
}

// TestServiceBadRequests pins the HTTP error surface.
func TestServiceBadRequests(t *testing.T) {
	_, ts := newTestServer(t, Options{Workers: 1})
	// Malformed and unknown-field bodies are 400s, not silent defaults.
	// Party counts below one are rejected up front (n=-3 once built a
	// grid whose cells panicked in the graph constructor). NaN, infinite
	// and huge (above a billion rounds) delay or fault parameters are
	// rejected too (a NaN delay once wedged the virtual-time engine; a
	// 1e308 one was filed in the wrong histogram bucket).
	for _, body := range []string{"{not json", `{"nope":"x"}`, `{"schemes":"Z"}`, `{"n":"0"}`, `{"n":"-3"}`, `{"hashmode":"incremental"}`,
		`{"delay":"lognormal:NaN"}`, `{"delay":"jitter:Inf"}`, `{"netfaults":"spike=NaN"}`, `{"netfaults":"spike=0.01,spike-delay=NaN"}`,
		`{"delay":"jitter:1e308"}`, `{"netfaults":"spike=0.01,spike-delay=1e308"}`} {
		resp, err := http.Post(ts.URL+"/sessions", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("POST %q status = %d, want 400", body, resp.StatusCode)
		}
	}
	// A body over the limit is refused before it is read whole: one huge
	// string field answers 413, not a 400 from gridspec.
	huge := `{"topology":"` + strings.Repeat("x", maxSpecBytes) + `"}`
	resp, err := http.Post(ts.URL+"/sessions", "application/json", strings.NewReader(huge))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Errorf("POST of a %d-byte body status = %d, want 413", len(huge), resp.StatusCode)
	}
	for _, path := range []string{"/sessions/doesnotexist", "/sessions/doesnotexist/result", "/sessions/x/nope"} {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Errorf("GET %s status = %d, want 404", path, resp.StatusCode)
		}
	}
	resp, err = http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("healthz = %d", resp.StatusCode)
	}
	// DELETE on the collection is rejected loudly.
	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/sessions", nil)
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("DELETE /sessions = %d, want 405", resp.StatusCode)
	}
}

// TestSessionIDStability pins the content address: equal specs share a
// session, different specs do not, and normalization happens first.
func TestSessionIDStability(t *testing.T) {
	a := SessionID(smallSpec())
	if b := SessionID(smallSpec()); b != a {
		t.Fatalf("same spec hashed to %s and %s", a, b)
	}
	// A spec that differs only by omitted-vs-explicit defaults is the
	// same session.
	explicit := smallSpec()
	explicit.Workload = "random"
	if b := SessionID(explicit); b != a {
		t.Fatalf("normalized spec hashed differently: %s vs %s", a, b)
	}
	other := smallSpec()
	other.Seed = 2
	if b := SessionID(other); b == a {
		t.Fatal("different specs share a session id")
	}
}
