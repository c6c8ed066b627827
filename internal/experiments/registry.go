package experiments

import (
	"fmt"
	"sort"
)

// Runner produces one experiment table.
type Runner func(Config) (*Table, error)

// Registry maps experiment IDs to runners; cmd/mpicbench iterates it.
var Registry = map[string]Runner{
	"table1":           Table1,
	"noise-sweep":      NoiseSweep,
	"rate-size":        RateVsSize,
	"cc-noise":         CCVsNoise,
	"rewind-wave":      RewindWave,
	"potential":        PotentialGrowth,
	"collisions":       Collisions,
	"ablation":         Ablation,
	"delta-bias":       DeltaBias,
	"seed-attack":      SeedAttack,
	"rounds":           Rounds,
	"fully-utilized":   FullyUtilizedCost,
	"collision-attack": CollisionAttack,
	"delay-overhead":   DelayOverhead,
}

// Names returns the registered experiment names, sorted.
func Names() []string {
	out := make([]string, 0, len(Registry))
	for name := range Registry {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// Run executes one named experiment, stamping the table with the
// registry key.
func Run(name string, cfg Config) (*Table, error) {
	r, ok := Registry[name]
	if !ok {
		return nil, fmt.Errorf("experiments: unknown experiment %q (have %v)", name, Names())
	}
	t, err := r(cfg)
	if err != nil {
		return nil, err
	}
	t.Name = name
	return t, nil
}

// RunAll executes every experiment in name order.
func RunAll(cfg Config) ([]*Table, error) {
	var out []*Table
	for _, name := range Names() {
		t, err := Run(name, cfg)
		if err != nil {
			return nil, fmt.Errorf("experiment %s: %w", name, err)
		}
		out = append(out, t)
	}
	return out, nil
}
