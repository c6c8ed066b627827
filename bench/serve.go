package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"sort"
	"strings"
	"sync"
	"time"

	"mpic"
	"mpic/internal/gridspec"
	"mpic/internal/service"
)

// serveClients is the closed loop's client count: each client submits
// its next session only after the previous one's result is in.
const serveClients = 2

// serveSystem drives the grid service over loopback HTTP: POST a grid
// spec, follow its Server-Sent Events to the terminal session frame, GET
// the result. The service runs with its default options over a fresh
// data directory.
type serveSystem struct {
	cfg    config
	dir    string
	srv    *service.Server
	hts    *httptest.Server
	client *http.Client
}

func newServeSystem(cfg config) system { return &serveSystem{cfg: cfg} }

// spec is op i's submission; every op's seed is distinct, so every POST
// opens a new session.
func (d *serveSystem) spec(seed int64) gridspec.Grid {
	return gridspec.Grid{N: "4,6", Schemes: "A,B", Rates: "0,0.001", Trials: 2, IterFactor: 20, Seed: seed}
}

func (d *serveSystem) setup() error {
	d.close()
	dir, err := os.MkdirTemp(d.cfg.tmp, "serve-")
	if err != nil {
		return err
	}
	d.dir = dir
	d.srv, err = service.New(service.Options{DataDir: dir})
	if err != nil {
		return err
	}
	d.hts = httptest.NewServer(d.srv.Handler())
	d.client = &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 2 * serveClients}}
	_, err = d.op(-1, warmupSeed, nil)
	return err
}

func (d *serveSystem) run(ph *phase) error {
	var wg sync.WaitGroup
	for c := 0; c < serveClients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i, ok := ph.claim()
				if !ok {
					return
				}
				start := time.Now()
				hash, err := d.op(i, d.cfg.seed+int64(i), ph.tr)
				ph.done(i, time.Since(start), hash, err)
			}
		}()
	}
	wg.Wait()
	return nil
}

func (d *serveSystem) close() {
	if d.hts != nil {
		d.client.CloseIdleConnections()
		d.hts.Close()
		d.hts = nil
	}
	if d.srv != nil {
		ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
		_ = d.srv.Shutdown(ctx) // sessions are done; nothing is left to drain
		cancel()
		d.srv = nil
	}
	if d.dir != "" {
		os.RemoveAll(d.dir)
		d.dir = ""
	}
}

// sessionReply is the part of the service's session JSON the client reads.
type sessionReply struct {
	ID    string `json:"id"`
	State string `json:"state"`
}

// progressFrame is the part of an SSE progress frame the client reads.
type progressFrame struct {
	Event string `json:"event"`
	State string `json:"state"`
}

// resultReply is the service's session result.
type resultReply struct {
	State    string            `json:"state"`
	Cells    int               `json:"cells"`
	Complete bool              `json:"complete"`
	Failures []json.RawMessage `json:"failures"`
	Rows     []struct {
		Index int            `json:"index"`
		Key   mpic.GridKey   `json:"key"`
		Cell  mpic.SweepCell `json:"cell"`
	} `json:"rows"`
}

// op submits one session and follows it to its result, returning the
// hash of the result rows.
func (d *serveSystem) op(i int, seed int64, tr *tracer) (string, error) {
	spec := d.spec(seed)
	body, err := json.Marshal(spec)
	if err != nil {
		return "", err
	}
	start := time.Now()
	var sess sessionReply
	if err := d.do(http.MethodPost, "/sessions", body, &sess); err != nil {
		return "", err
	}
	posted := time.Now()

	frames, firstFrame, err := d.follow(sess.ID)
	if err != nil {
		return "", err
	}
	followed := time.Now()

	var res resultReply
	if err := d.do(http.MethodGet, "/sessions/"+sess.ID+"/result", nil, &res); err != nil {
		return "", err
	}
	end := time.Now()

	hash, implied, err := checkServeResult(spec, res)
	if err != nil {
		return "", err
	}
	if tr != nil {
		root := tr.span(i, "serve.op", 0, start, end)
		tr.span(i, "serve.post", root, start, posted)
		tr.span(i, "serve.events", root, posted, followed)
		tr.span(i, "serve.result", root, followed, end)
		tr.observe("serve.post_ms", ms(posted.Sub(start)))
		if !firstFrame.IsZero() {
			tr.observe("serve.first_frame_ms", ms(firstFrame.Sub(start)))
		}
		tr.observe("serve.result_ms", ms(end.Sub(followed)))
		tr.add("serve.sessions", 1)
		tr.add("serve.frames", float64(frames))
		tr.add("serve.frames_implied", float64(implied))
	}
	return hash, nil
}

// do sends one request and decodes a 2xx JSON reply into out.
func (d *serveSystem) do(method, path string, body []byte, out any) error {
	req, err := http.NewRequest(method, d.hts.URL+path, bytes.NewReader(body))
	if err != nil {
		return err
	}
	resp, err := d.client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode/100 != 2 {
		return fmt.Errorf("%s %s: %s: %s", method, path, resp.Status, bytes.TrimSpace(data))
	}
	return json.Unmarshal(data, out)
}

// follow reads a session's event stream until its terminal session frame
// (or until the server ends a stream it opened on an already-finished
// session) and counts the progress frames received.
func (d *serveSystem) follow(id string) (frames int, first time.Time, err error) {
	resp, err := d.client.Get(d.hts.URL + "/sessions/" + id + "/events")
	if err != nil {
		return 0, first, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return 0, first, fmt.Errorf("GET events: %s", resp.Status)
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
	event := ""
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "event: "):
			event = strings.TrimPrefix(line, "event: ")
		case strings.HasPrefix(line, "data: ") && event == "status":
			var s sessionReply
			if err := json.Unmarshal([]byte(line[len("data: "):]), &s); err != nil {
				return frames, first, fmt.Errorf("status frame: %w", err)
			}
			if s.State != "running" {
				return frames, first, nil
			}
		case strings.HasPrefix(line, "data: ") && event == "progress":
			if frames == 0 {
				first = time.Now()
			}
			frames++
			var f progressFrame
			if err := json.Unmarshal([]byte(line[len("data: "):]), &f); err != nil {
				return frames, first, fmt.Errorf("progress frame: %w", err)
			}
			if f.Event == "session" {
				if f.State != "done" {
					return frames, first, fmt.Errorf("session ended %q", f.State)
				}
				return frames, first, nil
			}
		}
	}
	if err := sc.Err(); err != nil {
		return frames, first, err
	}
	// The stream closed without a session frame: the session finished
	// between the status snapshot and the subscription.
	return frames, first, nil
}

// checkServeResult verifies a session result against its spec and
// returns the rows' hash and the number of progress frames the rows
// imply (per trial a start, its iterations and a done; per cell a done;
// one session frame).
func checkServeResult(spec gridspec.Grid, res resultReply) (hash string, implied int, err error) {
	grid, err := spec.Normalize().Build()
	if err != nil {
		return "", 0, err
	}
	switch {
	case res.State != "done" || !res.Complete:
		return "", 0, fmt.Errorf("session result state %q complete=%v", res.State, res.Complete)
	case len(res.Failures) > 0:
		return "", 0, fmt.Errorf("session quarantined %d cells", len(res.Failures))
	case res.Cells != len(grid.Cells) || len(res.Rows) != len(grid.Cells):
		return "", 0, fmt.Errorf("session result has %d rows for %d cells", len(res.Rows), len(grid.Cells))
	}
	sort.Slice(res.Rows, func(a, b int) bool { return res.Rows[a].Index < res.Rows[b].Index })
	implied = 1
	for k, row := range res.Rows {
		want := grid.Cells[k].Key
		c := row.Cell
		if row.Index != k || row.Key.N != want.N || row.Key.Scheme != want.Scheme || row.Key.Rate != want.Rate {
			return "", 0, fmt.Errorf("result row %d is cell %d %+v, grid says %+v", k, row.Index, row.Key, want)
		}
		if c.Trials != spec.Trials || len(c.Iterations) != c.Trials || c.Successes > c.Trials {
			return "", 0, fmt.Errorf("result row %d aggregates %d trials (%d iteration counts, %d successes), want %d",
				k, c.Trials, len(c.Iterations), c.Successes, spec.Trials)
		}
		implied++
		for _, it := range c.Iterations {
			implied += 2 + int(it)
		}
	}
	hash, err = hashJSON(res.Rows)
	return hash, implied, err
}
