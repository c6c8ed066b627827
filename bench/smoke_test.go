package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestShortRunReportsEveryMetric runs every workload at about 1% of its
// pinned ops, untraced and traced, and checks that the result line names
// every metric of BENCHMARK.json with its unit.
func TestShortRunReportsEveryMetric(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var def struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &def); err != nil {
		t.Fatal(err)
	}
	if len(def.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json names %d workloads, the benchmark has %d", len(def.Workloads), len(workloads))
	}
	if len(def.PerLayer) != len(perLayerReported) {
		t.Errorf("BENCHMARK.json lists %d per-layer metrics, the benchmark reports %d", len(def.PerLayer), len(perLayerReported))
	}
	tmp := t.TempDir()
	setPath := filepath.Join(tmp, "set.json")
	for _, w := range def.Workloads {
		for trace, want := range map[string][]struct{ Name, Unit string }{"0": def.EndToEnd, "1": def.PerLayer} {
			var out, errOut bytes.Buffer
			args := []string{"-workload", w.Name, "-short", "-trace", trace, "-tmp", tmp,
				"-trace-dir", filepath.Join(tmp, "trace"), "-json", setPath}
			if code := run(args, &out, &errOut); code != 0 {
				t.Fatalf("%s -trace %s exited %d: %s", w.Name, trace, code, errOut.String())
			}
			lines := strings.Split(strings.TrimSpace(out.String()), "\n")
			var res result
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
				t.Fatalf("%s -trace %s: last line is not a result: %v", w.Name, trace, err)
			}
			if !res.Correct || res.Attempted < 1 || res.Failed != 0 {
				t.Errorf("%s -trace %s: correct=%v attempted=%d failed=%d", w.Name, trace, res.Correct, res.Attempted, res.Failed)
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s -trace %s: %d metrics, BENCHMARK.json names %d", w.Name, trace, len(res.Metrics), len(want))
			}
			for _, m := range want {
				got, ok := res.Metrics[m.Name]
				if !ok || got.Unit != m.Unit {
					t.Errorf("%s -trace %s: metric %s = %+v, want unit %q", w.Name, trace, m.Name, got, m.Unit)
				}
			}
		}
		if _, err := os.Stat(filepath.Join(tmp, "trace", w.Name+".spans.jsonl")); err != nil {
			t.Errorf("%s: traced run wrote no spans: %v", w.Name, err)
		}
	}

	// The set just written compares clean against itself.
	var out bytes.Buffer
	ok, err := compareSets(&out, "../BENCHMARK.json", setPath, setPath)
	if err != nil || !ok {
		t.Errorf("a set compared with itself: ok=%v err=%v\n%s", ok, err, out.String())
	}
}

func TestCompareFlagsRegression(t *testing.T) {
	tmp := t.TempDir()
	write := func(name string, opsPerSec float64) string {
		var b bytes.Buffer
		for _, w := range workloads {
			for seed := int64(1); seed <= 3; seed++ {
				m := map[string]metric{}
				for _, d := range endToEnd {
					m[d.name] = metric{1, d.unit}
				}
				m["ops_per_s"] = metric{opsPerSec, "ops/s"}
				data, err := json.Marshal(record{Workload: w.name, Seed: seed, result: result{Correct: true, Attempted: 1, Metrics: m}})
				if err != nil {
					t.Fatal(err)
				}
				b.Write(append(data, '\n'))
			}
		}
		path := filepath.Join(tmp, name)
		if err := os.WriteFile(path, b.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	base, slower, faster := write("a.json", 100), write("b.json", 50), write("c.json", 120)
	for _, c := range []struct {
		b    string
		want bool
	}{{faster, true}, {slower, false}} {
		var out bytes.Buffer
		ok, err := compareSets(&out, "../BENCHMARK.json", base, c.b)
		if err != nil {
			t.Fatal(err)
		}
		if ok != c.want {
			t.Errorf("compare against %s: ok=%v, want %v\n%s", filepath.Base(c.b), ok, c.want, out.String())
		}
	}
}
