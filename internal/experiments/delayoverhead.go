package experiments

import (
	"fmt"

	"mpic"
	"mpic/internal/core"
	"mpic/internal/graph"
	"mpic/internal/stats"
)

// DelayOverhead (E-D1) measures the coding overhead against the delay
// distribution: the same noisy scenario run under the virtual-time
// network's delay models, from lockstep through heavy-tailed lognormal
// timing. The paper's analysis is round-synchronous; this table pins
// how the simulation degrades — late symbols become insdel noise, so
// the blowup and iteration count grow with the tail weight of the
// delay distribution while the success rate should hold until the
// late-symbol rate overwhelms the noise budget.
func DelayOverhead(cfg Config) (*Table, error) {
	n := 6
	if cfg.Quick {
		n = 4
	}
	g := graph.Line(n)
	t := &Table{
		ID:    "E-D1",
		Title: "Coding overhead vs delay distribution (Algorithm A, line topology, ε/m random noise)",
		Header: []string{"delay", "success", "mean blowup", "mean iterations",
			"makespan", "late symbols", "erasures", "worst p99 delay"},
	}
	models := []string{"unit", "jitter:0.3", "jitter:0.5", "jitter:0.8",
		"lognormal:0.15", "lognormal:0.25", "lognormal:0.35", "bands:0.25"}
	if cfg.Quick {
		models = []string{"unit", "jitter:0.5", "lognormal:0.25"}
	}
	rate := 0.005 / float64(g.M())
	var cells []mpic.GridCell
	for _, model := range models {
		c, err := noiseCell(core.AlgA, g, "random", rate, cfg, iterBudget(cfg))
		if err != nil {
			return nil, err
		}
		if c.Scenario.Delay, err = mpic.ParseDelay(model); err != nil {
			return nil, err
		}
		cells = append(cells, c)
	}
	// KeepResults: the network metrics live in each trial's result, not
	// the aggregate. Restored sessions stream them back as
	// StoredResults, so this table resumes under -checkpoint too.
	measured, err := runGrid(cfg, "E-D1", cells, true)
	if err != nil {
		return nil, err
	}
	for i, res := range measured {
		c := res.Cell
		var makespan, p99 float64
		var late, erasures int64
		withNet := 0
		for _, r := range res.Results {
			if r == nil || r.Metrics.Net == nil {
				continue
			}
			withNet++
			makespan += r.Metrics.Net.Makespan
			late += r.Metrics.Net.LateSymbols
			erasures += r.Metrics.Net.Erasures
			if q := r.Metrics.Net.MaxP99(); q > p99 {
				p99 = q
			}
		}
		netCols := []string{"—", "—", "—", "—"}
		if withNet > 0 {
			netCols = []string{
				fmt.Sprintf("%.1f", makespan/float64(withNet)),
				fmt.Sprintf("%.1f", float64(late)/float64(withNet)),
				fmt.Sprintf("%.1f", float64(erasures)/float64(withNet)),
				fmt.Sprintf("%.2f", p99),
			}
		}
		t.Rows = append(t.Rows, append([]string{
			models[i],
			fmt.Sprintf("%.2f", stats.Rate(c.Successes, c.Trials)),
			fmt.Sprintf("%.1f", stats.Summarize(c.Blowups).Mean),
			fmt.Sprintf("%.0f", stats.Summarize(c.Iterations).Mean),
		}, netCols...))
	}
	t.Notes = append(t.Notes,
		fmt.Sprintf("n=%d, m=%d, rate %.5f; the unit row runs the synchronous lockstep executor, so it reports no network metrics", n, g.M(), rate),
		"late symbols surface as insdel noise: heavier delay tails raise the blowup before they dent the success rate")
	return t, nil
}
