package main

import (
	"bytes"
	"encoding/json"
	"os"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded by the benchmark around
// the public entry points it drives. Spans of one op share its op id;
// parent 0 marks an op's root span.
type span struct {
	Op     int    `json:"op"`
	ID     int    `json:"id"`
	Name   string `json:"name"`
	Parent int    `json:"parent"`
	Start  int64  `json:"start_ns"` // since the traced phase began
	End    int64  `json:"end_ns"`
}

// tracer collects the traced phase's spans, latency distributions and
// counters in memory; they are written out when the run ends. All
// methods are safe for concurrent use and no-ops on a nil tracer, so
// workloads call them unconditionally.
type tracer struct {
	start time.Time

	mu    sync.Mutex
	spans []span
	dists map[string][]float64
	sums  map[string]float64
}

func newTracer() *tracer {
	return &tracer{start: time.Now(), dists: map[string][]float64{}, sums: map[string]float64{}}
}

// span records [from, to) under parent and returns its id.
func (t *tracer) span(op int, name string, parent int, from, to time.Time) int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{Op: op, ID: id, Name: name, Parent: parent,
		Start: int64(from.Sub(t.start)), End: int64(to.Sub(t.start))})
	return id
}

// observe adds one sample to a distribution.
func (t *tracer) observe(name string, v float64) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.dists[name] = append(t.dists[name], v)
	t.mu.Unlock()
}

// add accumulates a counter.
func (t *tracer) add(name string, v float64) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.sums[name] += v
	t.mu.Unlock()
}

func (t *tracer) dist(name string) []float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.dists[name]
}

func (t *tracer) sum(name string) float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.sums[name]
}

// writeSpans writes one JSON object per line, after the phase ends.
func (t *tracer) writeSpans(path string) error {
	var b bytes.Buffer
	enc := json.NewEncoder(&b)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			return err
		}
	}
	return os.WriteFile(path, b.Bytes(), 0o644)
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
