package main

import (
	"fmt"
	"io"
	"time"
)

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type metricDef struct{ name, unit string }

// endToEnd are the metrics a user of the library sees, from the untraced
// phase; BENCHMARK.json holds their bounds.
var endToEnd = []metricDef{
	{"ops_per_s", "ops/s"},
	{"op_ms_p50", "ms"},
	{"op_ms_p90", "ms"},
	{"setup_s", "s"},
	{"cpu_s_per_op", "s"},
	{"alloc_bytes_per_op", "B"},
	{"max_rss_mb", "MB"},
}

func endToEndMetrics(st phaseStats, setups []float64) map[string]metric {
	ops := float64(st.ops)
	values := map[string]float64{
		"ops_per_s":          st.opsPerSec(),
		"op_ms_p50":          percentile(st.lat, 0.50),
		"op_ms_p90":          percentile(st.lat, 0.90),
		"setup_s":            median(setups),
		"cpu_s_per_op":       st.cpu.Seconds() / ops,
		"alloc_bytes_per_op": float64(st.allocBytes) / ops,
		"max_rss_mb":         maxRSSMB(),
	}
	out := make(map[string]metric, len(endToEnd))
	for _, d := range endToEnd {
		out[d.name] = metric{values[d.name], d.unit}
	}
	return out
}

// perLayerReported are the per-layer metrics of the result line; they
// are the traced run's metrics that read a measured, varying value on
// every workload — CPU shares and per-op counts and ratios — plus the
// per-op CPU of the layers every workload exercises. Latencies of spans
// that exist on some workloads only (store saves, service requests, core
// set-up) would read a constant 0 elsewhere; they are in the printed
// table and in DIR/<workload>.layers.json.
var perLayerReported = func() []string {
	var out []string
	for _, l := range layers {
		out = append(out, l+".cpu_share")
	}
	for _, l := range []string{
		"hashing.kernel", "hashing.seeds", "core.setup", "core.party", "core.meeting",
		"core.simulation", "core.rewind", "core.oracle", "protocol", "adversary", "runtime.gc",
	} {
		out = append(out, l+".cpu_ms_per_op")
	}
	return append(out,
		"core.iterations_per_op", "core.rounds_per_op", "core.cc_per_op", "core.arena_hit_ratio",
		"hashing.comparisons_per_op", "hashing.collisions_per_op", "adversary.corruptions_per_op",
		"network.late_symbols_per_op", "network.erasures_per_op",
		"grid.worker_busy_ratio",
		"store.save_growth", "store.save_share", "store.bytes_per_save",
		"serve.frames_per_session", "serve.frame_delivery_ratio",
		"trace.overhead", "trace.profile_coverage",
	)
}()

// layerReport is the traced run's full per-layer metric set, in
// presentation order: the layers' CPU metrics first, then the rest.
type layerReport struct {
	names   []string
	metrics map[string]metric
}

func (r *layerReport) set(name, unit string, v float64) {
	if r.metrics == nil {
		r.metrics = map[string]metric{}
	}
	if _, ok := r.metrics[name]; !ok {
		r.names = append(r.names, name)
	}
	r.metrics[name] = metric{v, unit}
}

// perLayerMetrics derives every per-layer metric from the traced phase:
// the CPU profile's per-layer time, the spans and counters the workloads
// recorded, and the untraced phase's throughput for the overhead.
func perLayerMetrics(untraced, traced phaseStats, cpuByLayer map[string]int64, tr *tracer) *layerReport {
	r := &layerReport{}
	ops := float64(traced.ops)
	var profiled int64
	for _, ns := range cpuByLayer {
		profiled += ns
	}
	for _, l := range layers {
		share := 0.0
		if profiled > 0 {
			share = float64(cpuByLayer[l]) / float64(profiled)
		}
		r.set(l+".cpu_share", "ratio", share)
		r.set(l+".cpu_ms_per_op", "ms", float64(cpuByLayer[l])/1e6/ops)
	}

	ratio := func(num, den float64) float64 {
		if den == 0 {
			return 0
		}
		return num / den
	}
	runs := tr.sum("core.runs")
	r.set("core.setup_ms_p50", "ms", percentile(tr.dist("core.setup_ms"), 0.50))
	r.set("core.iteration_us_p50", "us", percentile(tr.dist("core.iteration_us"), 0.50))
	r.set("core.iteration_us_p99", "us", percentile(tr.dist("core.iteration_us"), 0.99))
	r.set("core.teardown_ms_p50", "ms", percentile(tr.dist("core.teardown_ms"), 0.50))
	r.set("core.iterations_per_op", "count", ratio(tr.sum("core.iterations"), runs))
	r.set("core.rounds_per_op", "count", ratio(tr.sum("core.rounds"), runs))
	r.set("core.cc_per_op", "count", ratio(tr.sum("core.cc"), runs))
	r.set("core.arena_hit_ratio", "ratio", ratio(tr.sum("core.arena_hits"), tr.sum("core.arena_draws")))
	r.set("hashing.comparisons_per_op", "count", ratio(tr.sum("hashing.comparisons"), runs))
	r.set("hashing.collisions_per_op", "count", ratio(tr.sum("hashing.collisions"), runs))
	r.set("adversary.corruptions_per_op", "count", ratio(tr.sum("adversary.corruptions"), runs))
	r.set("network.late_symbols_per_op", "count", ratio(tr.sum("network.late_symbols"), runs))
	r.set("network.erasures_per_op", "count", ratio(tr.sum("network.erasures"), runs))

	r.set("grid.cell_exec_ms_p50", "ms", percentile(tr.dist("grid.cell_exec_ms"), 0.50))
	r.set("grid.worker_busy_ratio", "ratio", ratio(tr.sum("grid.busy_ms"), tr.sum("grid.capacity_ms")))

	saves := tr.dist("store.save_ms")
	r.set("store.save_ms_p50", "ms", percentile(saves, 0.50))
	r.set("store.save_ms_p99", "ms", percentile(saves, 0.99))
	r.set("store.save_growth", "ratio", mean(tr.dist("store.save_growth")))
	r.set("store.save_share", "ratio", ratio(tr.sum("store.save_total_ms"), tr.sum("grid.session_ms")))
	r.set("store.bytes_per_save", "B", ratio(tr.sum("store.bytes"), tr.sum("store.saves")))

	r.set("serve.post_ms_p50", "ms", percentile(tr.dist("serve.post_ms"), 0.50))
	r.set("serve.first_frame_ms_p50", "ms", percentile(tr.dist("serve.first_frame_ms"), 0.50))
	r.set("serve.result_ms_p50", "ms", percentile(tr.dist("serve.result_ms"), 0.50))
	r.set("serve.frames_per_session", "count", ratio(tr.sum("serve.frames"), tr.sum("serve.sessions")))
	r.set("serve.frame_delivery_ratio", "ratio", ratio(tr.sum("serve.frames"), tr.sum("serve.frames_implied")))

	r.set("trace.overhead", "ratio", 1-traced.opsPerSec()/untraced.opsPerSec())
	r.set("trace.profile_coverage", "ratio", ratio(float64(profiled), float64(traced.cpu)))
	return r
}

// reported picks the result line's per-layer metrics.
func (r *layerReport) reported() map[string]metric {
	out := make(map[string]metric, len(perLayerReported))
	for _, name := range perLayerReported {
		out[name] = r.metrics[name]
	}
	return out
}

// print writes the layer table and the other per-layer metrics.
func (r *layerReport) print(w io.Writer, traced phaseStats) {
	fmt.Fprintf(w, "%-20s %10s %14s\n", "layer", "cpu_share", "cpu_ms_per_op")
	sum := 0.0
	for _, l := range layers {
		share, perOp := r.metrics[l+".cpu_share"].Value, r.metrics[l+".cpu_ms_per_op"].Value
		sum += perOp
		fmt.Fprintf(w, "%-20s %9.1f%% %14.4f\n", l, 100*share, perOp)
	}
	rusage := ms(traced.cpu) / float64(traced.ops)
	fmt.Fprintf(w, "%-20s %10s %14.4f   (getrusage %.4f ms/op; the layers sum to %.1f%% of it)\n",
		"sum", "", sum, rusage, 100*sum/rusage)
	for _, name := range r.names[2*len(layers):] {
		m := r.metrics[name]
		fmt.Fprintf(w, "%-32s %14.6g %s\n", name, m.Value, m.Unit)
	}
}

// printEndToEnd writes the end-to-end metrics with their sample counts.
func printEndToEnd(w io.Writer, st phaseStats, m map[string]metric, setups []float64) {
	for _, d := range endToEnd {
		fmt.Fprintf(w, "%-20s %14.6g %s\n", d.name, m[d.name].Value, d.unit)
	}
	fmt.Fprintf(w, "ops %d (p90 rests on %d samples beyond it), failed %d, timed wall %s, set-up batch means %.4g s\n",
		st.ops, beyond(st.ops, 0.90), st.failed, st.wall.Round(time.Millisecond), setups)
}
