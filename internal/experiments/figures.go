package experiments

import (
	"fmt"

	"mpic"
	"mpic/internal/core"
	"mpic/internal/graph"
	"mpic/internal/stats"
)

// NoiseSweep (E-F1) measures success probability against the noise
// fraction for each scheme, validating the resilience claims of
// Theorems 1.1 and 1.2: Algorithm A holds up at Θ(ε/m) oblivious noise,
// Algorithm B at the smaller Θ(ε/(m log m)) budget against an adaptive
// attacker, with Algorithm C between them.
func NoiseSweep(cfg Config) (*Table, error) {
	n := 6
	if cfg.Quick {
		n = 4
	}
	g := graph.Line(n)
	m := float64(g.M())
	t := &Table{
		ID:     "E-F1",
		Title:  "Success probability vs noise fraction (line topology)",
		Header: []string{"scheme", "adversary", "noise ×(1/m)", "success rate", "mean blowup"},
	}
	multipliers := []float64{0, 0.002, 0.005, 0.01, 0.02, 0.05}
	if cfg.Quick {
		multipliers = []float64{0, 0.005, 0.02}
	}
	// The grid: schemes × multipliers, one row per cell.
	type rowSpec struct {
		scheme core.Scheme
		kind   string
		mult   float64
	}
	var rows []rowSpec
	var cells []mpic.GridCell
	for _, sw := range []struct {
		scheme core.Scheme
		noise  string
	}{{core.AlgA, "random"}, {core.AlgB, "adaptive"}, {core.AlgC, "adaptive"}} {
		for _, mult := range multipliers {
			kind := sw.noise
			if mult == 0 {
				kind = "none"
			}
			c, err := noiseCell(sw.scheme, g, kind, mult/m, cfg, iterBudget(cfg))
			if err != nil {
				return nil, err
			}
			rows = append(rows, rowSpec{sw.scheme, kind, mult})
			cells = append(cells, c)
		}
	}
	measured, err := runCells(cfg, "E-F1", cells)
	if err != nil {
		return nil, err
	}
	for i, r := range rows {
		c := measured[i]
		t.Rows = append(t.Rows, []string{
			r.scheme.String(), r.kind,
			fmt.Sprintf("%.3f", r.mult),
			fmt.Sprintf("%.2f", stats.Rate(c.Successes, c.Trials)),
			fmt.Sprintf("%.1f", stats.Summarize(c.Blowups).Mean),
		})
	}
	t.Notes = append(t.Notes, fmt.Sprintf("n=%d, m=%d; success should stay high for small multipliers and degrade as ε grows", n, g.M()))
	return t, nil
}

// RateVsSize (E-F2) measures the communication blowup CC/CC(Π) as the
// network grows, across topology families — the constant-rate claim. The
// paper's Θ(1) rate predicts a blowup that does not grow with n or m
// (for fixed per-link workload density).
func RateVsSize(cfg Config) (*Table, error) {
	sizes := []int{4, 6, 8, 12, 16}
	if cfg.Quick {
		sizes = []int{4, 6, 8}
	}
	t := &Table{
		ID:     "E-F2",
		Title:  "Communication blowup vs network size (Algorithm A, noiseless and ε/m noise)",
		Header: []string{"topology", "n", "m", "CC(Π)", "blowup noiseless", "blowup at ε/m"},
	}
	// The grid: (topology, n) × {noiseless, ε/m}, two cells per row.
	type rowSpec struct {
		topo string
		n    int
		g    *graph.Graph
	}
	var rows []rowSpec
	var cells []mpic.GridCell
	for _, topo := range []string{"line", "ring", "star", "clique", "random"} {
		for _, n := range sizes {
			if topo == "clique" && n > 8 && cfg.Quick {
				continue
			}
			g, err := graph.ByName(topo, n)
			if err != nil {
				return nil, err
			}
			quiet, err := noiseCell(core.AlgA, g, "none", 0, cfg, iterBudget(cfg))
			if err != nil {
				return nil, err
			}
			noisy, err := noiseCell(core.AlgA, g, "random", 0.005/float64(g.M()), cfg, iterBudget(cfg))
			if err != nil {
				return nil, err
			}
			rows = append(rows, rowSpec{topo, n, g})
			cells = append(cells, quiet, noisy)
		}
	}
	measured, err := runCells(cfg, "E-F2", cells)
	if err != nil {
		return nil, err
	}
	for i, r := range rows {
		quiet, noisy := measured[2*i], measured[2*i+1]
		proto := workload(r.g, cfg.Seed, cfg.Quick)
		t.Rows = append(t.Rows, []string{
			r.topo, fmt.Sprint(r.n), fmt.Sprint(r.g.M()),
			fmt.Sprint(proto.Schedule().TotalBits()),
			fmt.Sprintf("%.1f", stats.Summarize(quiet.Blowups).Mean),
			fmt.Sprintf("%.1f", stats.Summarize(noisy.Blowups).Mean),
		})
	}
	t.Notes = append(t.Notes, "constant rate: the blowup column should not trend upward with n")
	return t, nil
}

// CCVsNoise (E-F3) measures how total communication reacts to growing
// noise — the adaptive-budget effect of Section 4.4 (noise stretches the
// run, which grows the adversary's budget). The scheme's guarantee is
// that the blowup stays bounded while noise is under the tolerance.
func CCVsNoise(cfg Config) (*Table, error) {
	g := graph.Line(5)
	m := float64(g.M())
	t := &Table{
		ID:     "E-F3",
		Title:  "Communication blowup vs noise rate (Algorithm A, line n=5)",
		Header: []string{"noise ×(1/m)", "success", "mean blowup", "mean iterations", "corruptions"},
	}
	multipliers := []float64{0, 0.002, 0.005, 0.01, 0.02}
	cells := make([]mpic.GridCell, len(multipliers))
	for i, mult := range multipliers {
		kind := "random"
		if mult == 0 {
			kind = "none"
		}
		c, err := noiseCell(core.AlgA, g, kind, mult/m, cfg, iterBudget(cfg))
		if err != nil {
			return nil, err
		}
		cells[i] = c
	}
	measured, err := runCells(cfg, "E-F3", cells)
	if err != nil {
		return nil, err
	}
	for i, mult := range multipliers {
		c := measured[i]
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("%.3f", mult),
			fmt.Sprintf("%d/%d", c.Successes, c.Trials),
			fmt.Sprintf("%.1f", stats.Summarize(c.Blowups).Mean),
			fmt.Sprintf("%.0f", stats.Summarize(c.Iterations).Mean),
			fmt.Sprint(c.Corruptions),
		})
	}
	return t, nil
}

// Rounds (E-F10) measures the round-complexity blowup, which the paper
// explicitly does not bound by a constant (Section 1, "it may blow up the
// number of rounds of communication by more than a constant factor").
func Rounds(cfg Config) (*Table, error) {
	g := graph.Line(5)
	m := float64(g.M())
	t := &Table{
		ID:     "E-F10",
		Title:  "Round blowup vs noise (Algorithm A, line n=5)",
		Header: []string{"noise ×(1/m)", "RC(Π)", "mean rounds", "round blowup"},
	}
	proto := workload(g, cfg.Seed, cfg.Quick)
	rc := proto.Schedule().Rounds()
	multipliers := []float64{0, 0.005, 0.02}
	cells := make([]mpic.GridCell, len(multipliers))
	for i, mult := range multipliers {
		kind := "random"
		if mult == 0 {
			kind = "none"
		}
		c, err := noiseCell(core.AlgA, g, kind, mult/m, cfg, iterBudget(cfg))
		if err != nil {
			return nil, err
		}
		cells[i] = c
	}
	// The round count lives on the per-trial results, not the aggregate:
	// keep them.
	results, err := runGrid(cfg, "E-F10", cells, true)
	if err != nil {
		return nil, err
	}
	for i, mult := range multipliers {
		var rounds []float64
		for _, res := range results[i].Results {
			rounds = append(rounds, float64(res.Metrics.Rounds))
		}
		mean := stats.Summarize(rounds).Mean
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("%.3f", mult),
			fmt.Sprint(rc),
			fmt.Sprintf("%.0f", mean),
			fmt.Sprintf("%.1f", mean/float64(rc)),
		})
	}
	t.Notes = append(t.Notes, "round blowup exceeds the communication blowup: the coded protocol idles links that Π would use in parallel")
	return t, nil
}

// iterBudget picks the iteration multiplier for sweep experiments.
func iterBudget(cfg Config) int {
	if cfg.Quick {
		return 30
	}
	return 100
}
