package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
)

// benchmarkDef is the part of BENCHMARK.json the comparison reads.
type benchmarkDef struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

func readBenchmarkDef(path string) (benchmarkDef, error) {
	var def benchmarkDef
	data, err := os.ReadFile(path)
	if err != nil {
		return def, err
	}
	if err := json.Unmarshal(data, &def); err != nil {
		return def, fmt.Errorf("%s: %w", path, err)
	}
	return def, nil
}

// readSet loads the untraced records of a -json set, keyed by workload.
func readSet(path string) (map[string][]record, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	out := map[string][]record{}
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
	for sc.Scan() {
		var r record
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		if r.Trace == 0 {
			out[r.Workload] = append(out[r.Workload], r)
		}
	}
	return out, sc.Err()
}

// compareSets prints, for every workload × end-to-end metric, both sets'
// medians, the change from A to B as a share of A's median (positive =
// worse), and the metric's bound; it also prints each set's spread.
// ok is false when any change is past its bound, when a workload is
// missing from either set, or when B has failed ops.
func compareSets(w io.Writer, benchPath, pathA, pathB string) (ok bool, err error) {
	def, err := readBenchmarkDef(benchPath)
	if err != nil {
		return false, err
	}
	a, err := readSet(pathA)
	if err != nil {
		return false, err
	}
	b, err := readSet(pathB)
	if err != nil {
		return false, err
	}
	ok = true
	fmt.Fprintf(w, "%-18s %-19s %14s %14s %8s %8s %8s %7s\n",
		"workload", "metric", "median A", "median B", "worse by", "bound", "spreadA", "verdict")
	for _, wl := range def.Workloads {
		ra, rb := a[wl.Name], b[wl.Name]
		if len(ra) == 0 || len(rb) == 0 {
			fmt.Fprintf(w, "%-18s missing: %d runs in A, %d in B\n", wl.Name, len(ra), len(rb))
			ok = false
			continue
		}
		for _, r := range rb {
			if r.Failed > 0 || !r.Correct {
				fmt.Fprintf(w, "%-18s B run at seed %d failed %d of %d ops\n", wl.Name, r.Seed, r.Failed, r.Attempted)
				ok = false
			}
		}
		for _, m := range def.EndToEnd {
			va, vb := values(ra, m.Name), values(rb, m.Name)
			ma, mb := median(va), median(vb)
			worse := 0.0
			if ma != 0 {
				worse = (mb - ma) / ma
			}
			if m.Better == "higher" {
				worse = -worse
			}
			verdict := "ok"
			if worse > m.Bound {
				verdict = "WORSE"
				ok = false
			}
			fmt.Fprintf(w, "%-18s %-19s %14.6g %14.6g %+7.1f%% %7.1f%% %7.1f%% %7s\n",
				wl.Name, m.Name, ma, mb, 100*worse, 100*m.Bound, 100*spread(va), verdict)
		}
	}
	return ok, nil
}

func values(rs []record, name string) []float64 {
	out := make([]float64, 0, len(rs))
	for _, r := range rs {
		if m, ok := r.Metrics[name]; ok {
			out = append(out, m.Value)
		}
	}
	return out
}
