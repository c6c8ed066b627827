package experiments

import (
	"fmt"

	"mpic"
	"mpic/internal/graph"
	"mpic/internal/protocol"
	"mpic/internal/stats"
)

// FullyUtilizedCost (E-F11) quantifies the Section 1 observation that
// motivates the paper's communication model: forcing a sparse protocol
// into the fully-utilized model (as RS94/HS16/ABE+16 require) inflates
// CC(Π) by up to a factor of m, which no constant-rate coding on top can
// recover. The table compares CC of the raw protocol, its fully-utilized
// conversion, and the coded simulation of each.
func FullyUtilizedCost(cfg Config) (*Table, error) {
	t := &Table{
		ID:    "E-F11",
		Title: "Cost of the fully-utilized model conversion (token ring workload)",
		Header: []string{"n (ring)", "m", "CC(Π)", "CC(fully-utilized Π)", "inflation",
			"coded blowup (sparse)", "coded blowup (fully-utilized)"},
	}
	sizes := []int{4, 6, 8, 12}
	if cfg.Quick {
		sizes = []int{4, 6}
	}
	// The grid: per ring size, the sparse protocol and its fully-utilized
	// conversion, coded by the same scheme.
	type rowSpec struct {
		n          int
		sparseBits int
		fuBits     int
	}
	var rows []rowSpec
	var cells []mpic.GridCell
	const laps, inputBits = 6, 4
	for _, n := range sizes {
		ring, err := protocol.NewTokenRing(n, laps, protocol.DefaultInputs(n, inputBits, cfg.Seed))
		if err != nil {
			return nil, err
		}
		fu := protocol.NewFullyUtilized(ring)
		rows = append(rows, rowSpec{n: n, sparseBits: ring.Schedule().TotalBits(), fuBits: fu.Schedule().TotalBits()})
		for _, proto := range []protocol.Protocol{ring, fu} {
			cells = append(cells, gridCell(mpic.Scenario{
				Workload:   mpic.UseProtocol(proto),
				Scheme:     mpic.AlgorithmA,
				Seed:       cfg.Seed,
				IterFactor: iterBudget(cfg),
				HashMode:   mpic.HashLegacy, // paper-faithful, like cellScenario
			}, cfg))
		}
	}
	// The protocols ride UseProtocol closures the grid fingerprint cannot
	// see; the salt carries their shaping parameters.
	measured, err := runCells(cfg, fmt.Sprintf("E-F11 sizes=%v laps=%d inputs=%d", sizes, laps, inputBits), cells)
	if err != nil {
		return nil, err
	}
	for i, r := range rows {
		// Blowups relative to the ORIGINAL sparse protocol: the
		// fully-utilized conversion's padding is pure overhead, so the fu
		// cell's CC/CC(fu) blowup is rescaled by CC(fu)/CC(Π).
		var sparseBlow, fuBlow []float64
		for v, c := range []mpic.SweepCell{measured[2*i], measured[2*i+1]} {
			if c.Successes < c.Trials {
				t.Notes = append(t.Notes, fmt.Sprintf("n=%d variant %d: %d/%d trials FAILED", r.n, v, c.Trials-c.Successes, c.Trials))
			}
			scale := 1.0
			if v == 1 {
				scale = float64(r.fuBits) / float64(r.sparseBits)
			}
			for _, blow := range c.Blowups {
				if v == 0 {
					sparseBlow = append(sparseBlow, blow*scale)
				} else {
					fuBlow = append(fuBlow, blow*scale)
				}
			}
		}
		g := graph.Ring(r.n)
		t.Rows = append(t.Rows, []string{
			fmt.Sprint(r.n), fmt.Sprint(g.M()),
			fmt.Sprint(r.sparseBits), fmt.Sprint(r.fuBits),
			fmt.Sprintf("%.0fx", float64(r.fuBits)/float64(r.sparseBits)),
			fmt.Sprintf("%.1f", stats.Summarize(sparseBlow).Mean),
			fmt.Sprintf("%.1f", stats.Summarize(fuBlow).Mean),
		})
	}
	t.Notes = append(t.Notes,
		"Section 1: the fully-utilized conversion costs a factor 2m on this 1-bit-per-round workload, and the coded run inherits it — the relaxed model is what makes constant rate possible for sparse protocols")
	return t, nil
}
