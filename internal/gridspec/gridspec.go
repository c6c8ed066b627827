// Package gridspec is the one parser for scenario and grid
// specifications shared by the CLIs (cmd/mpicsim, cmd/mpicbench) and
// the grid service (cmd/mpicserve). Each spec is a flat struct of
// strings and scalars resolved through the library's four open
// registries (topology / workload / noise / delay). A Scenario is
// mpicsim's flag set; a Grid is a JSON object, and Decode is the one
// reader of it, whether it arrives as an mpicserve request body, a
// persisted session's spec.json or an `mpicbench -grid` file.
package gridspec

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"strconv"
	"strings"

	"mpic"
)

// Scenario is a single-run specification — the scenario-shaping flags
// of mpicsim, by their flag names.
type Scenario struct {
	Topology     string  `json:"topology,omitempty"`
	N            int     `json:"n,omitempty"`
	Workload     string  `json:"workload,omitempty"`
	Rounds       int     `json:"rounds,omitempty"`
	Scheme       string  `json:"scheme,omitempty"`
	Noise        string  `json:"noise,omitempty"`
	Rate         float64 `json:"rate,omitempty"`
	Seed         int64   `json:"seed,omitempty"`
	IterFactor   int     `json:"iterfactor,omitempty"`
	Faithful     bool    `json:"faithful,omitempty"`
	HashMode     string  `json:"hashmode,omitempty"`
	EpochRefresh int     `json:"epochRefresh,omitempty"`
	Delay        string  `json:"delay,omitempty"`
	NetFaults    string  `json:"netfaults,omitempty"`
}

// Build resolves the specification into a runnable mpic.Scenario. Empty
// fields take the defaults of the mpicsim flags: 6 parties, the "random"
// workload, and the workload's own topology family (see base).
func (s Scenario) Build() (mpic.Scenario, error) {
	if s.N == 0 {
		s.N = 6
	}
	sc, err := s.base()
	if err != nil {
		return mpic.Scenario{}, err
	}
	if s.Scheme != "" {
		if sc.Scheme, err = mpic.ParseScheme(s.Scheme); err != nil {
			return mpic.Scenario{}, err
		}
	}
	if sc.Delay, err = mpic.ParseDelay(s.Delay); err != nil {
		return mpic.Scenario{}, err
	}
	return sc, nil
}

// base resolves the fields a single run and every cell of a grid share.
// An empty workload is "random"; an empty topology is the workload's
// fixed family, or "line" for workloads that run anywhere. A workload
// fixed to one family rejects any other explicit topology rather than
// silently overriding it. Out-of-range numbers are rejected here, before
// any cell runs: the library reads a negative iteration factor or round
// count as its default, a negative epoch refresh fails every run, and a
// non-finite rate fails only when a finished cell is persisted.
func (s Scenario) base() (mpic.Scenario, error) {
	if s.N < 1 {
		return mpic.Scenario{}, fmt.Errorf("n: party counts must be at least 1, got %d", s.N)
	}
	for _, f := range []struct {
		name string
		v    int
	}{{"rounds", s.Rounds}, {"iterfactor", s.IterFactor}, {"epochRefresh", s.EpochRefresh}} {
		if f.v < 0 {
			return mpic.Scenario{}, fmt.Errorf("%s: must be non-negative (0 = the default), got %d", f.name, f.v)
		}
	}
	if err := checkRate(s.Rate); err != nil {
		return mpic.Scenario{}, fmt.Errorf("rate: %w", err)
	}
	workload := s.Workload
	if workload == "" {
		workload = "random"
	}
	def, err := mpic.LookupWorkload(workload)
	if err != nil {
		return mpic.Scenario{}, err
	}
	fixed := def.FixedTopology
	topology := s.Topology
	switch {
	case fixed != "" && topology != "" && topology != fixed:
		return mpic.Scenario{}, fmt.Errorf(
			"gridspec: workload %q runs only on the %q topology, got explicit %q (leave the topology empty to accept the default)",
			workload, fixed, topology)
	case fixed != "":
		topology = fixed
	case topology == "":
		topology = "line"
	}
	noise, err := mpic.Noise(s.Noise, s.Rate)
	if err != nil {
		return mpic.Scenario{}, err
	}
	mode, err := mpic.ParseHashMode(s.HashMode)
	if err != nil {
		return mpic.Scenario{}, err
	}
	faults, err := mpic.ParseNetFaults(s.NetFaults)
	if err != nil {
		return mpic.Scenario{}, err
	}
	return mpic.Scenario{
		Topology:     mpic.Topology(topology, s.N),
		Workload:     mpic.Workload(workload, s.Rounds),
		Noise:        noise,
		Faults:       faults,
		Seed:         s.Seed,
		IterFactor:   s.IterFactor,
		Faithful:     s.Faithful,
		HashMode:     mode,
		EpochRefresh: s.EpochRefresh,
	}, nil
}

// defaultSeedStep is the per-trial seed stride grids run at unless the
// spec overrides it — the same prime mpicbench sweeps have always used.
const defaultSeedStep = 7907

// maxCells bounds a grid's cell count: the service builds grids from
// request bodies, and an axis product in the millions would exhaust
// memory before a single cell ran.
const maxCells = 1 << 16

// Grid is a cartesian grid specification, with list-valued axes as
// comma-separated strings. Its JSON form is the body of mpicserve's
// POST /sessions and the file `mpicbench -grid` reads; Decode reads it.
type Grid struct {
	Topology   string `json:"topology,omitempty"`
	Workload   string `json:"workload,omitempty"`
	Rounds     int    `json:"rounds,omitempty"`
	Noise      string `json:"noise,omitempty"`
	N          string `json:"n,omitempty"`
	Schemes    string `json:"schemes,omitempty"`
	Rates      string `json:"rates,omitempty"`
	Delay      string `json:"delay,omitempty"`
	NetFaults  string `json:"netfaults,omitempty"`
	Trials     int    `json:"trials,omitempty"`
	Seed       int64  `json:"seed,omitempty"`
	IterFactor int    `json:"iterfactor,omitempty"`
	// HashMode pins the grid's prefix-hash seed discipline ("epoch" or
	// "legacy"); empty means the library default. Set fields join the
	// Spec fingerprint, so checkpoints from before the fields existed keep
	// theirs.
	HashMode     string `json:"hashmode,omitempty"`
	EpochRefresh int    `json:"epochRefresh,omitempty"`
	// SeedStep overrides the per-trial seed stride; 0 means the default
	// (7907). Non-default strides join the Spec fingerprint.
	SeedStep int64 `json:"seedstep,omitempty"`
}

// Decode reads one grid spec in its JSON form. A field this build does
// not know is an error, and so is anything but whitespace after the
// object; read errors stay matchable (errors.As). It does not Normalize.
func Decode(r io.Reader) (Grid, error) {
	var g Grid
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&g); err != nil {
		return Grid{}, err
	}
	if tok, err := dec.Token(); err != io.EOF {
		if err == nil {
			err = fmt.Errorf("%v", tok)
		}
		return Grid{}, fmt.Errorf("data after the spec object: %w", err)
	}
	return g, nil
}

// Normalize fills the fields a spec may omit with their defaults. They
// are the retired `mpicbench -sweep` flags' defaults, so a journal that
// command wrote resumes under the same grid given as a spec.
func (g Grid) Normalize() Grid {
	if g.Workload == "" {
		g.Workload = "random"
	}
	if g.Noise == "" {
		g.Noise = "random"
	}
	if g.N == "" {
		g.N = "4,6"
	}
	if g.Schemes == "" {
		g.Schemes = "A"
	}
	if g.Rates == "" {
		g.Rates = "0.001"
	}
	if g.Trials == 0 {
		g.Trials = 10
	}
	if g.Seed == 0 {
		g.Seed = 1
	}
	if g.IterFactor == 0 {
		g.IterFactor = 30
	}
	return g
}

// Spec fingerprints the grid-defining fields; a checkpoint written
// under a different spec must not be merged into this grid. The network
// timing fields join the spec only when set — and SeedStep only when it
// deviates from the default — so checkpoints from before those fields
// existed keep their fingerprints.
func (g Grid) Spec() string {
	s := fmt.Sprintf("topology=%s workload=%s rounds=%d noise=%s n=%s schemes=%s rates=%s trials=%d seed=%d iterfactor=%d",
		g.Topology, g.Workload, g.Rounds, g.Noise, g.N, g.Schemes, g.Rates, g.Trials, g.Seed, g.IterFactor)
	if g.Delay != "" || g.NetFaults != "" {
		s += fmt.Sprintf(" delay=%s netfaults=%s", g.Delay, g.NetFaults)
	}
	if g.SeedStep != 0 && g.SeedStep != defaultSeedStep {
		s += fmt.Sprintf(" seedstep=%d", g.SeedStep)
	}
	if g.HashMode != "" {
		s += fmt.Sprintf(" hashmode=%s", g.HashMode)
	}
	if g.EpochRefresh != 0 {
		s += fmt.Sprintf(" epochrefresh=%d", g.EpochRefresh)
	}
	return s
}

// Build resolves the specification into an mpic.Grid with its Spec set —
// ready for the engine. The cells are
// the cartesian product of the n, scheme, rate and delay axes, nested in
// that order; an empty scheme or delay axis keeps the scenario default.
// The rate axis applies only when the scenario has a noise model at all;
// callers that want to reject a useless rate axis loudly (mpicbench does,
// for an explicit rates field) check the cells' Noise themselves.
func (g Grid) Build() (mpic.Grid, error) {
	if g.Trials < 0 {
		return mpic.Grid{}, fmt.Errorf("trials: must be non-negative (0 = the default), got %d", g.Trials)
	}
	ns, err := ParseInts(g.N)
	if err != nil {
		return mpic.Grid{}, fmt.Errorf("n: %w", err)
	}
	for _, n := range ns {
		if n < 1 {
			return mpic.Grid{}, fmt.Errorf("n: party counts must be at least 1, got %d", n)
		}
	}
	rates := []float64{0}
	if g.Rates != "" {
		if rates, err = ParseFloats(g.Rates); err != nil {
			return mpic.Grid{}, fmt.Errorf("rates: %w", err)
		}
		for _, r := range rates {
			if err := checkRate(r); err != nil {
				return mpic.Grid{}, fmt.Errorf("rates: %w", err)
			}
		}
	}
	schemes := []mpic.Scheme{0}
	if g.Schemes != "" {
		if schemes, err = ParseSchemes(g.Schemes); err != nil {
			return mpic.Grid{}, fmt.Errorf("schemes: %w", err)
		}
	}
	base, err := Scenario{
		Topology: g.Topology, N: ns[0],
		Workload: g.Workload, Rounds: g.Rounds,
		Noise:        g.Noise,
		Seed:         g.Seed,
		IterFactor:   g.IterFactor,
		HashMode:     g.HashMode,
		EpochRefresh: g.EpochRefresh,
		NetFaults:    g.NetFaults,
	}.base()
	if err != nil {
		return mpic.Grid{}, err
	}
	rated := g.Rates != "" && base.Noise != nil
	if !rated {
		rates = []float64{0}
	}
	delays := []mpic.DelaySpec{nil}
	if g.Delay != "" {
		delays = delays[:0]
		for _, part := range strings.Split(g.Delay, ",") {
			d, err := mpic.ParseDelay(strings.TrimSpace(part))
			if err != nil {
				return mpic.Grid{}, fmt.Errorf("delay: %w", err)
			}
			if d == nil {
				d = mpic.LockstepDelay()
			}
			delays = append(delays, d)
		}
	}
	total := 1
	for _, axis := range []int{len(ns), len(schemes), len(rates), len(delays)} {
		if total *= axis; total > maxCells {
			return mpic.Grid{}, fmt.Errorf("grid: the n × schemes × rates × delays product exceeds %d cells", maxCells)
		}
	}
	step := g.SeedStep
	if step == 0 {
		step = defaultSeedStep
	}
	cells := make([]mpic.GridCell, 0, total)
	for _, n := range ns {
		for _, scheme := range schemes {
			for _, rate := range rates {
				for _, delay := range delays {
					sc := base
					sc.Topology.N = n
					sc.Scheme = scheme
					if rated {
						if sc.Noise = base.Noise.WithRate(rate); sc.Noise == nil {
							return mpic.Grid{}, fmt.Errorf("rates: noise %q cannot vary its rate (WithRate returned nil); register a rate-parameterized NoiseFamily to sweep it",
								base.Noise.NoiseName())
						}
					}
					sc.Delay = delay
					key := mpic.GridKey{N: n, Scheme: scheme, Rate: rate}
					if key.Scheme == 0 {
						key.Scheme = mpic.AlgorithmA
					}
					if delay != nil {
						key.Delay = delay.DelayName()
					}
					cells = append(cells, mpic.GridCell{Key: key, Scenario: sc, Trials: g.Trials, SeedStep: step})
				}
			}
		}
	}
	return mpic.Grid{Cells: cells, Spec: g.Spec()}, nil
}

// checkRate rejects a noise rate that is NaN, infinite or negative: a
// negative rate silently runs noiseless, and a non-finite one cannot be
// persisted in a session journal.
func checkRate(r float64) error {
	if math.IsNaN(r) || math.IsInf(r, 0) || r < 0 {
		return fmt.Errorf("noise rates must be finite and non-negative, got %g", r)
	}
	return nil
}

// ParseInts parses a comma-separated integer list.
func ParseInts(s string) ([]int, error) {
	var out []int
	for _, part := range strings.Split(s, ",") {
		v, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil {
			return nil, err
		}
		out = append(out, v)
	}
	return out, nil
}

// ParseFloats parses a comma-separated float list.
func ParseFloats(s string) ([]float64, error) {
	var out []float64
	for _, part := range strings.Split(s, ",") {
		v, err := strconv.ParseFloat(strings.TrimSpace(part), 64)
		if err != nil {
			return nil, err
		}
		out = append(out, v)
	}
	return out, nil
}

// ParseSchemes parses a comma-separated scheme list (1|A|B|C).
func ParseSchemes(s string) ([]mpic.Scheme, error) {
	var out []mpic.Scheme
	for _, part := range strings.Split(s, ",") {
		sch, err := mpic.ParseScheme(strings.TrimSpace(part))
		if err != nil {
			return nil, err
		}
		out = append(out, sch)
	}
	return out, nil
}
