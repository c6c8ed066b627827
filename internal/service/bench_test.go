package service

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"mpic/internal/gridspec"
)

// serveSpec is the grid of the repo benchmark's serve workload: 8 cells
// of 2 trials each, distinct per seed so every submission is a new
// session.
func serveSpec(seed int64) gridspec.Grid {
	return gridspec.Grid{N: "4,6", Schemes: "A,B", Rates: "0,0.001", Trials: 2, IterFactor: 20, Seed: seed}
}

// serveOnce submits one session, follows its event stream to the
// terminal session frame and reads its result.
func serveOnce(client *http.Client, url string, g gridspec.Grid) error {
	body, err := json.Marshal(g)
	if err != nil {
		return err
	}
	resp, err := client.Post(url+"/sessions", "application/json", bytes.NewReader(body))
	if err != nil {
		return err
	}
	var info sessionInfo
	err = json.NewDecoder(resp.Body).Decode(&info)
	resp.Body.Close()
	if err != nil {
		return err
	}

	resp, err = client.Get(url + "/sessions/" + info.ID + "/events")
	if err != nil {
		return err
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
	for sc.Scan() {
		if line := sc.Text(); strings.HasPrefix(line, "data: ") &&
			(strings.Contains(line, `"event":"session"`) || strings.Contains(line, `"state":"done"`)) {
			break
		}
	}
	resp.Body.Close()

	resp, err = client.Get(url + "/sessions/" + info.ID + "/result")
	if err != nil {
		return err
	}
	var res resultBody
	err = json.NewDecoder(resp.Body).Decode(&res)
	resp.Body.Close()
	if err != nil {
		return err
	}
	if !res.Complete || res.State != "done" || len(res.Rows) != info.Cells {
		return fmt.Errorf("session %s ended %q with %d of %d rows", info.ID, res.State, len(res.Rows), info.Cells)
	}
	return nil
}

// liveHeap returns the heap in use after a full collection.
func liveHeap() uint64 {
	runtime.GC()
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.HeapAlloc
}

// BenchmarkServeSession runs the serve workload's round trip through
// Handler on a loopback server: POST a spec, follow its SSE stream to
// the session frame, GET the result. Two submitters keep two sessions in
// flight, as the repo benchmark's closed loop does, so ns/op is wall time
// per session at that load. retained-B/session is the heap each finished
// session adds after a GC, measured from the quarter mark to the end
// (with -benchtime 1600x: from 400 to 1600 sessions).
func BenchmarkServeSession(b *testing.B) {
	_, ts := newTestServer(b, Options{})
	client := &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 4}}
	defer client.CloseIdleConnections()
	var (
		mu     sync.Mutex
		failed error
	)
	run := func(from, to int) {
		var next atomic.Int64
		next.Store(int64(from))
		var wg sync.WaitGroup
		for c := 0; c < 2; c++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := next.Add(1) - 1; i < int64(to); i = next.Add(1) - 1 {
					if err := serveOnce(client, ts.URL, serveSpec(1+i)); err != nil {
						mu.Lock()
						failed = err
						mu.Unlock()
						return
					}
				}
			}()
		}
		wg.Wait()
		if failed != nil {
			b.Fatal(failed)
		}
	}

	b.ReportAllocs()
	b.ResetTimer()
	quarter := b.N / 4
	run(0, quarter)
	b.StopTimer()
	before := liveHeap()
	b.StartTimer()
	run(quarter, b.N)
	b.StopTimer()
	if n := b.N - quarter; n > 0 {
		b.ReportMetric((float64(liveHeap())-float64(before))/float64(n), "retained-B/session")
	}
}
