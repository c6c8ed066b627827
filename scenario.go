package mpic

import (
	"fmt"
	"math/rand"

	"mpic/internal/adversary"
	"mpic/internal/core"
	"mpic/internal/trace"
)

// RunInfo is the public phase layout of a run, handed to adversary
// factories and run-start observers.
type RunInfo = core.RunInfo

// AdversaryFactory builds a non-oblivious adversary once the run's phase
// layout is known.
type AdversaryFactory = func(info RunInfo) Adversary

// TopologySpec selects the communication graph of a Scenario. The zero
// value is invalid; build one with a named-family constructor (Line,
// Ring, Star, Clique, Tree, RandomTopology, Topology) or wrap an explicit
// graph with GraphTopology.
type TopologySpec struct {
	// Name is a registered topology family, instantiated at size N.
	Name string
	// N is the number of parties.
	N int
	// Graph, if non-nil, is used verbatim and Name/N/Build are ignored.
	Graph *Graph
	// Build, if non-nil, bypasses the registry (an unregistered external
	// family); N is passed through.
	Build TopologyBuilder
}

// Topology returns the spec for a registered topology family at size n.
func Topology(name string, n int) TopologySpec { return TopologySpec{Name: name, N: n} }

// Line is the path topology on n parties — the paper's running example.
func Line(n int) TopologySpec { return Topology("line", n) }

// Ring is the cycle topology on n ≥ 3 parties.
func Ring(n int) TopologySpec { return Topology("ring", n) }

// Star is the star topology with party 0 as hub.
func Star(n int) TopologySpec { return Topology("star", n) }

// Clique is the complete topology on n parties.
func Clique(n int) TopologySpec { return Topology("clique", n) }

// Tree is the balanced binary tree topology on n parties.
func Tree(n int) TopologySpec { return Topology("tree", n) }

// RandomTopology is a random connected topology on n parties,
// deterministic in n.
func RandomTopology(n int) TopologySpec { return Topology("random", n) }

// GraphTopology wraps an explicit, already-built graph as a topology
// spec.
func GraphTopology(g *Graph) TopologySpec { return TopologySpec{Graph: g} }

// isZero reports whether the spec was left empty.
func (t TopologySpec) isZero() bool {
	return t.Name == "" && t.Graph == nil && t.Build == nil
}

// label names the spec in error messages.
func (t TopologySpec) label() string {
	if t.Name != "" {
		return t.Name
	}
	return "custom"
}

// size reports the number of parties the spec will produce.
func (t TopologySpec) size() int {
	if t.Graph != nil {
		return t.Graph.N()
	}
	return t.N
}

// partyCount reports the number of parties the scenario runs with,
// falling back to the workload's own protocol graph when the topology is
// implicit.
func (sc Scenario) partyCount() int {
	if sc.Topology.isZero() && sc.Workload.Protocol != nil {
		return sc.Workload.Protocol.Graph().N()
	}
	return sc.Topology.size()
}

// materialize builds the graph.
func (t TopologySpec) materialize() (*Graph, error) {
	switch {
	case t.Graph != nil:
		return t.Graph, nil
	case t.Build != nil:
		return t.Build(t.N)
	case t.Name != "":
		return NewTopology(t.Name, t.N)
	default:
		return nil, fmt.Errorf("mpic: Scenario.Topology is required (e.g. mpic.Line(6))")
	}
}

// WorkloadSpec selects the protocol a Scenario simulates. The zero value
// means the "random" workload at its default scale.
type WorkloadSpec struct {
	// Name is a registered workload family ("" = "random").
	Name string
	// Rounds scales the workload; 0 means the 30·n default.
	Rounds int
	// Protocol, if non-nil, is simulated verbatim: the scenario takes its
	// topology from Protocol.Graph() and Name/Rounds/Build are ignored.
	Protocol Protocol
	// Build, if non-nil, bypasses the registry (an unregistered external
	// workload).
	Build WorkloadBuilder
}

// Workload returns the spec for a registered workload family at the
// given scale (rounds ≤ 0 selects the 30·n default).
func Workload(name string, rounds int) WorkloadSpec {
	return WorkloadSpec{Name: name, Rounds: rounds}
}

// RandomTraffic is generic pseudo-random traffic at density 1/2.
func RandomTraffic(rounds int) WorkloadSpec { return Workload("random", rounds) }

// DenseTraffic is generic pseudo-random traffic using every link every
// round.
func DenseTraffic(rounds int) WorkloadSpec { return Workload("dense", rounds) }

// PhaseKing is the phase-king consensus workload (fixed to the clique
// topology).
func PhaseKing(rounds int) WorkloadSpec { return Workload("phase-king", rounds) }

// PipelinedLine is the paper's Section 1.2 pipelined relay workload
// (fixed to the line topology).
func PipelinedLine(rounds int) WorkloadSpec { return Workload("pipelined-line", rounds) }

// TreeSum is the convergecast/broadcast aggregation workload.
func TreeSum(rounds int) WorkloadSpec { return Workload("tree-sum", rounds) }

// TokenRing is the circulating parity-token workload (fixed to the ring
// topology).
func TokenRing(rounds int) WorkloadSpec { return Workload("token-ring", rounds) }

// UseProtocol wraps a caller-built protocol as a workload spec; the
// scenario's topology is taken from the protocol itself.
func UseProtocol(p Protocol) WorkloadSpec { return WorkloadSpec{Protocol: p} }

// NoiseEnv is the deterministic context a NoiseSpec is wired in.
type NoiseEnv struct {
	// Graph is the scenario's topology.
	Graph *Graph
	// Rng is derived from the scenario seed; specs must draw all their
	// randomness from it so runs stay reproducible.
	Rng *rand.Rand
}

// Links lists all directed links of the topology.
func (e NoiseEnv) Links() []Link {
	edges := e.Graph.Edges()
	links := make([]Link, 0, 2*len(edges))
	for _, edge := range edges {
		links = append(links,
			Link{From: edge.U, To: edge.V},
			Link{From: edge.V, To: edge.U})
	}
	return links
}

// WiredNoise is a materialized noise model: either an oblivious
// adversary, or a factory for a non-oblivious one that needs the run's
// phase layout (set exactly one).
type WiredNoise struct {
	Adversary Adversary
	Factory   AdversaryFactory
}

// NoiseSpec describes a noise model abstractly; the scenario wires it to
// a concrete adversary at run time. A nil NoiseSpec means a noiseless
// channel.
type NoiseSpec interface {
	// NoiseName identifies the model in errors and tables.
	NoiseName() string
	// WithRate returns a copy of the spec at a different corruption rate
	// (used by a grid's rate axis), or nil if the spec cannot be re-rated
	// (its rate is baked into a closure or an adversary instance) — grid
	// builders turn that nil into a loud error rather than running
	// mislabeled cells.
	WithRate(rate float64) NoiseSpec
	// Wire materializes the adversary.
	Wire(env NoiseEnv) (WiredNoise, error)
}

// RandomNoiseSpec corrupts each transmission slot independently — the
// oblivious insertion/deletion/substitution mix of Section 2.1.
type RandomNoiseSpec struct {
	// Rate is the corruption budget as a fraction of total communication.
	Rate float64
}

// RandomNoise returns the independent-corruption noise model at rate.
func RandomNoise(rate float64) RandomNoiseSpec { return RandomNoiseSpec{Rate: rate} }

// NoiseName implements NoiseSpec.
func (RandomNoiseSpec) NoiseName() string { return "random" }

// WithRate implements NoiseSpec.
func (s RandomNoiseSpec) WithRate(rate float64) NoiseSpec { s.Rate = rate; return s }

// Wire implements NoiseSpec.
func (s RandomNoiseSpec) Wire(env NoiseEnv) (WiredNoise, error) {
	return WiredNoise{Adversary: adversary.NewRandomRate(s.Rate, env.Rng)}, nil
}

// BurstSpec concentrates the whole corruption budget on one directed
// link inside a round window — the "all noise on one link" attack the
// per-link meeting-points analysis worries about. The zero values of
// Link, Start and Length reproduce the legacy behavior: a uniformly
// random link attacked for the whole run.
type BurstSpec struct {
	// Rate is the corruption budget as a fraction of total communication.
	Rate float64
	// Link is the attacked directed link; nil picks a uniformly random
	// edge and attacks its canonical (lower→higher endpoint) direction —
	// the legacy default, pinned by TestBurstSpecDefaultsMatchLegacy. Set
	// Link explicitly to attack a specific direction (e.g. the reverse
	// one, which the random default never chooses).
	Link *Link
	// Start is the first round of the attack window (default 0).
	Start int
	// Length is the window length in rounds; 0 means unbounded.
	Length int
}

// BurstNoise returns the single-link burst noise model at rate, with the
// default window (a random link, the whole run).
func BurstNoise(rate float64) BurstSpec { return BurstSpec{Rate: rate} }

// NoiseName implements NoiseSpec.
func (BurstSpec) NoiseName() string { return "burst" }

// WithRate implements NoiseSpec.
func (s BurstSpec) WithRate(rate float64) NoiseSpec { s.Rate = rate; return s }

// Wire implements NoiseSpec.
func (s BurstSpec) Wire(env NoiseEnv) (WiredNoise, error) {
	target := Link{}
	if s.Link != nil {
		target = *s.Link
	} else {
		edges := env.Graph.Edges()
		e := edges[env.Rng.Intn(len(edges))]
		target = Link{From: e.U, To: e.V}
	}
	if !env.Graph.HasEdge(target.From, target.To) {
		return WiredNoise{}, fmt.Errorf("mpic: burst noise targets link %d→%d, which is not in the topology", target.From, target.To)
	}
	length := s.Length
	if length <= 0 {
		length = 1 << 30
	}
	return WiredNoise{Adversary: adversary.NewBurst(target, s.Start, s.Start+length, s.Rate)}, nil
}

// AdaptiveSpec is the non-oblivious attacker: it watches the public
// phase layout and targets simulation payload on a rotating link — the
// threat model Algorithms B and C pay for.
type AdaptiveSpec struct {
	// Rate is the corruption budget as a fraction of total communication.
	Rate float64
	// PerChunk bounds corruptions per targeted chunk (default 1).
	PerChunk int
}

// Adaptive returns the adaptive (non-oblivious) noise model at rate.
func Adaptive(rate float64) AdaptiveSpec { return AdaptiveSpec{Rate: rate} }

// NoiseName implements NoiseSpec.
func (AdaptiveSpec) NoiseName() string { return "adaptive" }

// WithRate implements NoiseSpec.
func (s AdaptiveSpec) WithRate(rate float64) NoiseSpec { s.Rate = rate; return s }

// Wire implements NoiseSpec.
func (s AdaptiveSpec) Wire(env NoiseEnv) (WiredNoise, error) {
	seed := env.Rng.Int63()
	rate := s.Rate
	perChunk := s.PerChunk
	return WiredNoise{Factory: func(info RunInfo) Adversary {
		a := adversary.NewAdaptive(info.Links, info.PhaseOracle, int(trace.PhaseSimulation), rate, rand.New(rand.NewSource(seed)))
		if perChunk > 0 {
			a.PerChunk = perChunk
		}
		return a
	}}, nil
}

// noiseFunc wraps a wiring function as a NoiseSpec.
type noiseFunc struct {
	name string
	wire func(env NoiseEnv) (WiredNoise, error)
}

func (f noiseFunc) NoiseName() string { return f.name }

// WithRate on a NoiseFunc spec returns nil: the rate is baked into the
// wiring closure, so such specs cannot ride a sweep's rate axis
// (register a NoiseFamily instead, which is parameterized by rate).
func (f noiseFunc) WithRate(float64) NoiseSpec { return nil }

func (f noiseFunc) Wire(env NoiseEnv) (WiredNoise, error) { return f.wire(env) }

// NoiseFunc builds a NoiseSpec from a wiring function — the escape hatch
// for one-off noise models that need no registry entry. The function is
// called once per run with a deterministic, seed-derived environment.
func NoiseFunc(name string, wire func(env NoiseEnv) (WiredNoise, error)) NoiseSpec {
	return noiseFunc{name: name, wire: wire}
}

// CustomNoise wraps an explicit adversary instance as a NoiseSpec. Most
// adversaries carry mutable state, so a CustomNoise spec is good for one
// run only — use NoiseFunc (or a registered family) for sweeps and
// repeated runs.
func CustomNoise(name string, adv Adversary) NoiseSpec {
	return NoiseFunc(name, func(NoiseEnv) (WiredNoise, error) {
		return WiredNoise{Adversary: adv}, nil
	})
}

// Noise instantiates a registered noise model at the given rate — the
// bridge from string-keyed configuration to a typed spec.
func Noise(name string, rate float64) (NoiseSpec, error) {
	if name == "" {
		name = "none"
	}
	family, err := noises.lookup(name)
	if err != nil {
		return nil, err
	}
	return family(rate), nil
}

// Scenario is a complete, typed description of one coded simulation:
// which workload over which topology, protected by which scheme, under
// which noise. The zero value of every field is meaningful (see the
// field docs), except Topology, which must be set unless the workload
// carries its own protocol.
type Scenario struct {
	// Topology is the communication graph.
	Topology TopologySpec
	// Workload is the protocol to simulate (zero value: "random").
	Workload WorkloadSpec
	// Scheme selects the coding scheme (default AlgorithmA).
	Scheme Scheme
	// Noise is the channel noise model; nil means noiseless.
	Noise NoiseSpec
	// Delay is the network's flight-delay model; nil means the paper's
	// lockstep network (every symbol takes exactly one round). A
	// non-lockstep model runs the virtual-time engine: late symbols
	// become insdel noise via the deadline synchronizer, and
	// Result.Metrics.Net reports the timing story.
	Delay DelaySpec
	// Faults is the network-fault schedule (link outages, delay spikes,
	// stragglers, crash-restart parties); nil means a fault-free
	// network. A schedule forces the virtual-time engine even under a
	// lockstep Delay. Faults.Seed 0 derives a default from Seed, so a
	// zero-seed schedule still replays with the scenario.
	Faults *NetFaults
	// Seed makes the run reproducible (inputs, noise, and randomness).
	Seed int64
	// IterFactor bounds iterations at IterFactor·|Π| (default 100, the
	// paper's constant).
	IterFactor int
	// Faithful disables the oracle's early stop, running all
	// IterFactor·|Π| iterations like the paper's protocol.
	Faithful bool
	// HashMode selects the prefix-hash seed discipline (zero value:
	// HashEpoch, the epoch-refresh fast path). HashLegacy restores the
	// paper-faithful per-iteration reseeding. See core.Params.HashMode.
	HashMode HashMode
	// EpochRefresh is the refresh interval R of HashEpoch in iterations
	// (0 selects DefaultEpochRefresh; ignored by HashLegacy). An R at
	// least the iteration budget never refreshes.
	EpochRefresh int
	// WhiteBoxRate, if positive, replaces Noise with the seed-aware
	// collision attacker of Section 6.1 at the given rate.
	WhiteBoxRate float64
	// Tune, if set, adjusts the derived scheme parameters before the run
	// (ablations, hash-width overrides, seed-kind swaps).
	Tune func(p *Params)
	// Observers receive per-iteration callbacks during the run.
	Observers []Observer
}

// noiseRngSalt derives the noise-wiring rng from the scenario seed; the
// constant is pinned because every pre-Scenario fixed-seed result
// depends on the exact stream.
const noiseRngSalt = 2654435761

// materialize resolves the topology and workload into a runnable
// protocol.
func (sc Scenario) materialize() (Protocol, *Graph, error) {
	if sc.Workload.Protocol != nil {
		if !sc.Topology.isZero() {
			return nil, nil, fmt.Errorf("mpic: Scenario.Topology must be empty when Workload.Protocol is set (the protocol brings its own graph)")
		}
		return sc.Workload.Protocol, sc.Workload.Protocol.Graph(), nil
	}
	build := sc.Workload.Build
	if build == nil {
		name := sc.Workload.Name
		if name == "" {
			name = "random"
		}
		def, err := workloads.lookup(name)
		if err != nil {
			return nil, nil, err
		}
		build = def.Build
		if fixed := def.FixedTopology; fixed != "" {
			if sc.Topology.isZero() {
				return nil, nil, fmt.Errorf("mpic: workload %q needs a topology size; set Topology to mpic.Topology(%q, n)", name, fixed)
			}
			if sc.Topology.Name != fixed {
				return nil, nil, fmt.Errorf("mpic: workload %q runs only on the %q topology, got %q (fixed-topology workloads lay out their own graph, so pass mpic.Topology(%q, n))",
					name, fixed, sc.Topology.label(), fixed)
			}
		}
	}
	g, err := sc.Topology.materialize()
	if err != nil {
		return nil, nil, err
	}
	rounds := sc.Workload.Rounds
	if rounds <= 0 {
		rounds = 30 * g.N()
	}
	proto, err := build(g, rounds, sc.Seed)
	if err != nil {
		return nil, nil, err
	}
	return proto, g, nil
}

// options compiles the scenario into core run options.
func (sc Scenario) options() (core.Options, error) {
	proto, g, err := sc.materialize()
	if err != nil {
		return core.Options{}, err
	}
	scheme := sc.Scheme
	if scheme == 0 {
		scheme = AlgorithmA
	}
	params := core.ParamsFor(scheme, g)
	params.CRSKey = sc.Seed
	if sc.IterFactor > 0 {
		params.IterFactor = sc.IterFactor
	}
	if sc.Faithful {
		params.EarlyStop = false
	}
	params.HashMode = sc.HashMode
	params.EpochRefresh = sc.EpochRefresh
	if sc.Tune != nil {
		sc.Tune(&params)
	}
	opts := core.Options{
		Protocol:     proto,
		Params:       params,
		WhiteBoxRate: sc.WhiteBoxRate,
		Observers:    sc.Observers,
	}
	if err := sc.wireNoise(g, &opts); err != nil {
		return core.Options{}, err
	}
	if err := sc.wireDelay(g, &opts); err != nil {
		return core.Options{}, err
	}
	return opts, nil
}

// wireDelay materializes the scenario's delay spec and fault schedule
// into the options. The delay seed and the default fault seed are
// distinct salted streams off the scenario seed, disjoint from the noise
// stream, so adding a delay model never perturbs the channel noise.
func (sc Scenario) wireDelay(g *Graph, opts *core.Options) error {
	if sc.Delay != nil {
		model, err := sc.Delay.Wire(DelayEnv{Graph: g, Seed: sc.Seed*noiseRngSalt + 2})
		if err != nil {
			return err
		}
		if model == nil {
			return fmt.Errorf("mpic: delay %q wired a nil model", sc.Delay.DelayName())
		}
		opts.Delay = model
	}
	if sc.Faults != nil {
		nf := *sc.Faults
		if nf.Seed == 0 {
			nf.Seed = sc.Seed*noiseRngSalt + 3
		}
		opts.NetFaults = &nf
	}
	return nil
}

// wireNoise materializes the scenario's noise spec into the options.
func (sc Scenario) wireNoise(g *Graph, opts *core.Options) error {
	if sc.Noise == nil {
		opts.Adversary = adversary.None{}
		return nil
	}
	env := NoiseEnv{Graph: g, Rng: rand.New(rand.NewSource(sc.Seed*noiseRngSalt + 1))}
	wn, err := sc.Noise.Wire(env)
	if err != nil {
		return err
	}
	if wn.Adversary == nil && wn.Factory == nil {
		return fmt.Errorf("mpic: noise %q wired neither an adversary nor a factory", sc.Noise.NoiseName())
	}
	opts.Adversary = wn.Adversary
	opts.AdversaryFactory = wn.Factory
	return nil
}
