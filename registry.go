package mpic

import (
	"fmt"
	"sort"
	"sync"

	"mpic/internal/graph"
	"mpic/internal/protocol"
)

// The four open registries behind the scenario specs. The built-in
// topology families, workloads, noise models, and delay models are
// ordinary seed entries in these tables; external packages extend the
// library by registering their own under new names, after which the
// names work everywhere a built-in name does — typed specs (Topology,
// Workload, Noise, Delay), the string specs of internal/gridspec, and the
// command-line tools.
//
// Registration is typically done from an init function:
//
//	func init() {
//	    if err := mpic.RegisterTopology("wheel", buildWheel); err != nil {
//	        panic(err)
//	    }
//	}
//
// All registry operations are safe for concurrent use.

// TopologyBuilder materializes a registered topology family at size n.
type TopologyBuilder func(n int) (*Graph, error)

// WorkloadBuilder materializes a registered workload over a topology.
// rounds is the requested workload scale (always positive — the scenario
// layer fills the 30·n default before calling) and seed derives the
// workload's inputs and randomness.
type WorkloadBuilder func(g *Graph, rounds int, seed int64) (Protocol, error)

// WorkloadDef describes a registered workload family.
type WorkloadDef struct {
	// Build materializes the workload.
	Build WorkloadBuilder
	// FixedTopology names the only topology family the workload runs on
	// ("" = any connected topology). Scenarios reject a conflicting
	// explicit topology and fill in an absent one.
	FixedTopology string
}

// NoiseFamily instantiates a registered noise model at a corruption rate
// (the paper's µ, as a fraction of total communication). A family may
// return nil for "no noise".
type NoiseFamily func(rate float64) NoiseSpec

// DelayFamily instantiates a registered delay model at its family
// parameter (jitter width, lognormal sigma, slow-band fraction — the
// knob each family exposes on a sweep axis; 0 means the family default).
// A family may return nil for "lockstep network".
type DelayFamily func(param float64) DelaySpec

type registry[T any] struct {
	mu   sync.RWMutex
	kind string
	m    map[string]T
}

func (r *registry[T]) register(name string, v T) error {
	if name == "" {
		return fmt.Errorf("mpic: empty %s name", r.kind)
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.m == nil {
		r.m = make(map[string]T)
	}
	if _, dup := r.m[name]; dup {
		return fmt.Errorf("mpic: %s %q already registered", r.kind, name)
	}
	r.m[name] = v
	return nil
}

func (r *registry[T]) lookup(name string) (T, error) {
	r.mu.RLock()
	v, ok := r.m[name]
	r.mu.RUnlock()
	if !ok {
		var zero T
		return zero, fmt.Errorf("mpic: unknown %s %q (registered: %v)", r.kind, name, r.names())
	}
	return v, nil
}

func (r *registry[T]) names() []string {
	r.mu.RLock()
	out := make([]string, 0, len(r.m))
	for name := range r.m {
		out = append(out, name)
	}
	r.mu.RUnlock()
	sort.Strings(out)
	return out
}

var (
	topologies = &registry[TopologyBuilder]{kind: "topology"}
	workloads  = &registry[WorkloadDef]{kind: "workload"}
	noises     = &registry[NoiseFamily]{kind: "noise"}
	delays     = &registry[DelayFamily]{kind: "delay"}
)

// RegisterTopology adds a topology family under name. It fails on an
// empty or already-registered name.
func RegisterTopology(name string, build TopologyBuilder) error {
	if build == nil {
		return fmt.Errorf("mpic: topology %q has no builder", name)
	}
	return topologies.register(name, build)
}

// RegisterWorkload adds a workload family under name. It fails on an
// empty or already-registered name.
func RegisterWorkload(name string, def WorkloadDef) error {
	if def.Build == nil {
		return fmt.Errorf("mpic: workload %q has no builder", name)
	}
	return workloads.register(name, def)
}

// RegisterNoise adds a noise-model family under name. It fails on an
// empty or already-registered name.
func RegisterNoise(name string, family NoiseFamily) error {
	if family == nil {
		return fmt.Errorf("mpic: noise %q has no family", name)
	}
	return noises.register(name, family)
}

// RegisterDelay adds a delay-model family under name — the fourth open
// registry, next to topology/workload/noise. It fails on an empty or
// already-registered name.
func RegisterDelay(name string, family DelayFamily) error {
	if family == nil {
		return fmt.Errorf("mpic: delay %q has no family", name)
	}
	return delays.register(name, family)
}

// TopologyNames lists the registered topology families, sorted.
func TopologyNames() []string { return topologies.names() }

// WorkloadNames lists the registered workload families, sorted.
func WorkloadNames() []string { return workloads.names() }

// NoiseNames lists the registered noise models, sorted.
func NoiseNames() []string { return noises.names() }

// DelayNames lists the registered delay models, sorted.
func DelayNames() []string { return delays.names() }

// mustRegister panics on a seed-entry registration failure — a
// programming error in this package.
func mustRegister(err error) {
	if err != nil {
		panic(err)
	}
}

// The built-in topology families: thin registry entries over the graph
// generators that the old string switch dispatched to.
func init() {
	for _, name := range []string{"line", "ring", "star", "clique", "tree", "random"} {
		name := name
		mustRegister(RegisterTopology(name, func(n int) (*Graph, error) {
			return graph.ByName(name, n)
		}))
	}
}

// defaultInputs derives the standard per-party inputs the built-in
// workloads consume.
func defaultInputs(g *Graph, seed int64) [][]byte {
	return protocol.DefaultInputs(g.N(), 4, seed)
}

// The built-in workloads: the arms of the old NewWorkload switch, with
// the fixed-topology requirements of pipelined-line, token-ring, and
// phase-king made explicit.
func init() {
	mustRegister(RegisterWorkload("random", WorkloadDef{
		Build: func(g *Graph, rounds int, seed int64) (Protocol, error) {
			return protocol.NewRandom(g, rounds, 0.5, seed, defaultInputs(g, seed)), nil
		},
	}))
	mustRegister(RegisterWorkload("dense", WorkloadDef{
		Build: func(g *Graph, rounds int, seed int64) (Protocol, error) {
			return protocol.NewRandom(g, rounds, 1.0, seed, defaultInputs(g, seed)), nil
		},
	}))
	mustRegister(RegisterWorkload("phase-king", WorkloadDef{
		FixedTopology: "clique",
		Build: func(g *Graph, rounds int, seed int64) (Protocol, error) {
			phases := rounds / (2 * g.N())
			if phases < g.N() {
				phases = g.N()
			}
			return protocol.NewPhaseKing(g.N(), phases, defaultInputs(g, seed)), nil
		},
	}))
	mustRegister(RegisterWorkload("pipelined-line", WorkloadDef{
		FixedTopology: "line",
		Build: func(g *Graph, rounds int, seed int64) (Protocol, error) {
			blocks := rounds / (g.N() + 3)
			if blocks < 1 {
				blocks = 1
			}
			return protocol.NewPipelinedLine(g.N(), blocks, 4, defaultInputs(g, seed))
		},
	}))
	mustRegister(RegisterWorkload("tree-sum", WorkloadDef{
		Build: func(g *Graph, rounds int, seed int64) (Protocol, error) {
			epochs := rounds/(8*g.N()) + 1
			return protocol.NewTreeSum(g, epochs, 8, defaultInputs(g, seed)), nil
		},
	}))
	mustRegister(RegisterWorkload("token-ring", WorkloadDef{
		FixedTopology: "ring",
		Build: func(g *Graph, rounds int, seed int64) (Protocol, error) {
			laps := rounds / g.N()
			if laps < 1 {
				laps = 1
			}
			return protocol.NewTokenRing(g.N(), laps, defaultInputs(g, seed))
		},
	}))
}

// internal/gridspec reads the fixed-topology rule through this bridge.
func init() {
	protocol.FixedTopology = func(name string) (string, error) {
		def, err := workloads.lookup(name)
		return def.FixedTopology, err
	}
}

// The built-in noise models: the arms of the old wireNoise switch.
func init() {
	mustRegister(RegisterNoise("none", func(rate float64) NoiseSpec { return nil }))
	mustRegister(RegisterNoise("random", func(rate float64) NoiseSpec { return RandomNoise(rate) }))
	mustRegister(RegisterNoise("burst", func(rate float64) NoiseSpec { return BurstNoise(rate) }))
	mustRegister(RegisterNoise("adaptive", func(rate float64) NoiseSpec { return Adaptive(rate) }))
}

// The built-in delay models. "unit" and "lockstep" are the same
// synchronous spec under both of its common names; the parameter is each
// family's single shape knob (0 = default).
func init() {
	lockstep := func(float64) DelaySpec { return LockstepDelay() }
	mustRegister(RegisterDelay("unit", lockstep))
	mustRegister(RegisterDelay("lockstep", lockstep))
	mustRegister(RegisterDelay("jitter", func(p float64) DelaySpec { return JitterDelay(p) }))
	mustRegister(RegisterDelay("lognormal", func(p float64) DelaySpec { return LognormalDelay(p) }))
	mustRegister(RegisterDelay("bands", func(p float64) DelaySpec { return BandedDelay(p) }))
}

// NewTopology builds one of the registered topology families — the
// string-keyed entry point the typed Topology spec supersedes.
func NewTopology(name string, n int) (*Graph, error) {
	if n < 1 {
		return nil, fmt.Errorf("mpic: topology %q needs at least one party, got n=%d", name, n)
	}
	build, err := topologies.lookup(name)
	if err != nil {
		return nil, err
	}
	return build(n)
}

// NewWorkload builds one of the registered workload protocols over g,
// defaulting rounds to 30·n — the string-keyed entry point the typed
// Workload spec supersedes.
func NewWorkload(name string, g *Graph, rounds int, seed int64) (Protocol, error) {
	if name == "" {
		name = "random"
	}
	def, err := workloads.lookup(name)
	if err != nil {
		return nil, err
	}
	if rounds <= 0 {
		rounds = 30 * g.N()
	}
	return def.Build(g, rounds, seed)
}
