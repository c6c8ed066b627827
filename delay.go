package mpic

import (
	"fmt"
	"strconv"
	"strings"

	"mpic/internal/network"
)

// DelayModel assigns per-symbol flight delays on the virtual-time
// network; see internal/network's DelayModel for the contract (pure,
// positive, measured in round-periods).
type DelayModel = network.DelayModel

// NonFiniteError is the error Delay, ParseDelay, ParseNetFaults and
// NetFaults.Validate return for a NaN or infinite parameter.
type NonFiniteError = network.NonFiniteError

// DelayRangeError is the error Delay, ParseDelay, ParseNetFaults,
// NetFaults.Validate and the built-in delay specs' Wire return for a
// delay parameter above network.MaxDelay (a billion rounds).
type DelayRangeError = network.DelayRangeError

// NetFaults is a network-fault schedule: link outage windows, delay
// spikes, straggler parties, and crash-stop/restart parties, every
// decision a pure function of its seed. A nil *NetFaults means a
// fault-free network. The zero value of each knob is "off"; see the
// field docs on network.FaultSchedule.
type NetFaults = network.FaultSchedule

// DelayEnv is the deterministic context a DelaySpec is wired in.
type DelayEnv struct {
	// Graph is the scenario's topology.
	Graph *Graph
	// Seed is derived from the scenario seed; specs must route all their
	// randomness through it (via the site-hashed detrand primitives the
	// built-in models use) so runs replay bit-identically.
	Seed int64
}

// DelaySpec describes a flight-delay model abstractly; the scenario
// wires it to a concrete DelayModel at run time. A nil DelaySpec means
// the lockstep (unit-delay) network — the paper's synchronous model,
// executed on the classic engine path.
type DelaySpec interface {
	// DelayName identifies the model in errors, tables, and grid keys.
	DelayName() string
	// Wire materializes the delay model.
	Wire(env DelayEnv) (DelayModel, error)
}

// LockstepDelaySpec is the unit-delay model as an explicit spec: every
// symbol takes exactly one round. With no fault schedule it runs on the
// classic synchronous engine path, bit-identical to a nil DelaySpec;
// with faults it runs on the discrete-event path.
type LockstepDelaySpec struct{}

// LockstepDelay returns the unit-delay (lockstep) spec.
func LockstepDelay() LockstepDelaySpec { return LockstepDelaySpec{} }

// DelayName implements DelaySpec.
func (LockstepDelaySpec) DelayName() string { return "unit" }

// Wire implements DelaySpec.
func (LockstepDelaySpec) Wire(DelayEnv) (DelayModel, error) {
	return network.Unit{}, nil
}

// JitterDelaySpec is base delay plus uniform jitter per symbol.
type JitterDelaySpec struct {
	// Base is the minimum flight time in rounds (0 means 0.45).
	Base float64
	// Jitter is the uniform jitter width in rounds (0 means 0.5).
	Jitter float64
}

// JitterDelay returns the fixed+jitter delay spec; jitter ≤ 0 selects
// the 0.5 default. A symbol flies Base + Jitter·U rounds for a uniform U
// in [0, 1), and it is late, a deletion plus an insertion to the scheme,
// only when that exceeds one round. So a symbol can be late only when
// Base + Jitter > 1, and then a fraction (Base + Jitter − 1)/Jitter of
// them is. At the defaults (base 0.45, jitter 0.5) every flight is under
// 0.95 rounds and no symbol is ever late: the model moves arrival times
// within the round and adds no noise. Jitter 0.56 over the default base
// makes 1/56 of the symbols, about 1.8%, late.
func JitterDelay(jitter float64) JitterDelaySpec {
	return JitterDelaySpec{Jitter: jitter}
}

// DelayName implements DelaySpec.
func (JitterDelaySpec) DelayName() string { return "jitter" }

// Wire implements DelaySpec.
func (s JitterDelaySpec) Wire(env DelayEnv) (DelayModel, error) {
	if err := network.CheckDelay("jitter Base", s.Base); err != nil {
		return nil, err
	}
	if err := network.CheckDelay("jitter Jitter", s.Jitter); err != nil {
		return nil, err
	}
	base, jitter := s.Base, s.Jitter
	if base <= 0 {
		base = 0.45
	}
	if jitter <= 0 {
		jitter = 0.5
	}
	return network.FixedJitter{Base: base, Jitter: jitter, Seed: env.Seed}, nil
}

// LognormalDelaySpec draws flight times from a lognormal distribution —
// the standard wide-area latency model, with a heavy upper tail that
// produces occasional late symbols.
type LognormalDelaySpec struct {
	// Median is the median flight time in rounds (0 means 0.5).
	Median float64
	// Sigma is the log-scale spread (0 means 0.25).
	Sigma float64
}

// LognormalDelay returns the lognormal delay spec; sigma ≤ 0 selects the
// 0.25 default.
func LognormalDelay(sigma float64) LognormalDelaySpec {
	return LognormalDelaySpec{Sigma: sigma}
}

// DelayName implements DelaySpec.
func (LognormalDelaySpec) DelayName() string { return "lognormal" }

// Wire implements DelaySpec.
func (s LognormalDelaySpec) Wire(env DelayEnv) (DelayModel, error) {
	if err := network.CheckDelay("lognormal Median", s.Median); err != nil {
		return nil, err
	}
	median, sigma := s.Median, s.Sigma
	if median <= 0 {
		median = 0.5
	}
	if sigma <= 0 {
		sigma = 0.25
	}
	return network.Lognormal{Median: median, Sigma: sigma, Seed: env.Seed}, nil
}

// BandedDelaySpec is the heterogeneous per-link model: each directed
// link is assigned once — deterministically from the seed — to a fast or
// a slow latency band, like LEO vs GEO paths in a satellite network.
type BandedDelaySpec struct {
	// SlowFraction is the probability a link lands in the slow band
	// (0 means 0.25).
	SlowFraction float64
}

// BandedDelay returns the two-band heterogeneous delay spec; frac ≤ 0
// selects the 0.25 default.
func BandedDelay(frac float64) BandedDelaySpec {
	return BandedDelaySpec{SlowFraction: frac}
}

// DelayName implements DelaySpec.
func (BandedDelaySpec) DelayName() string { return "bands" }

// Wire implements DelaySpec.
func (s BandedDelaySpec) Wire(env DelayEnv) (DelayModel, error) {
	slow := s.SlowFraction
	if slow <= 0 {
		slow = 0.25
	}
	if slow > 1 {
		return nil, fmt.Errorf("mpic: bands delay slow fraction %g outside [0,1]", slow)
	}
	return network.Bands{
		Bands: []network.Band{
			{Fraction: 1 - slow, Base: 0.25, Jitter: 0.15},
			{Fraction: slow, Base: 0.55, Jitter: 0.5},
		},
		Seed: env.Seed,
	}, nil
}

// Delay instantiates a registered delay model at the given parameter —
// the bridge from string-keyed configuration to a typed spec. The
// parameter's meaning is per-family (jitter width, lognormal sigma, slow
// fraction); 0 selects the family default. A NaN or infinite parameter
// is a *NonFiniteError, and one above network.MaxDelay a
// *DelayRangeError.
func Delay(name string, param float64) (DelaySpec, error) {
	if err := network.CheckDelay(name+" delay parameter", param); err != nil {
		return nil, err
	}
	if name == "" || name == "none" {
		return nil, nil
	}
	family, err := delays.lookup(name)
	if err != nil {
		return nil, err
	}
	return family(param), nil
}

// ParseDelay parses the CLI syntax "name" or "name:param" into a delay
// spec; "", "none", "unit", and "lockstep" all mean the synchronous
// network ("unit"/"lockstep" as an explicit spec, the others as nil).
func ParseDelay(s string) (DelaySpec, error) {
	name, params, _ := strings.Cut(s, ":")
	param := 0.0
	if params != "" {
		var err error
		param, err = strconv.ParseFloat(params, 64)
		if err != nil {
			return nil, fmt.Errorf("mpic: delay %q: bad parameter %q", s, params)
		}
	}
	return Delay(strings.TrimSpace(name), param)
}

// ParseNetFaults parses the CLI syntax "key=value,..." into a fault
// schedule. Keys: outage (rate), outage-len (rounds), spike (rate),
// spike-delay (rounds), stragglers (count), straggler-delay (rounds),
// crashes (count), crash-len (rounds), seed. An empty string means no
// schedule (nil).
func ParseNetFaults(s string) (*NetFaults, error) {
	s = strings.TrimSpace(s)
	if s == "" || s == "none" {
		return nil, nil
	}
	nf := &NetFaults{}
	for _, kv := range strings.Split(s, ",") {
		key, val, ok := strings.Cut(strings.TrimSpace(kv), "=")
		if !ok {
			return nil, fmt.Errorf("mpic: netfaults %q: expected key=value, got %q", s, kv)
		}
		key = strings.TrimSpace(key)
		val = strings.TrimSpace(val)
		switch key {
		case "outage", "spike", "spike-delay", "straggler-delay":
			f, err := strconv.ParseFloat(val, 64)
			if err != nil {
				return nil, fmt.Errorf("mpic: netfaults %s=%q: %v", key, val, err)
			}
			switch key {
			case "outage":
				nf.OutageRate = f
			case "spike":
				nf.SpikeRate = f
			case "spike-delay":
				nf.SpikeDelay = f
			case "straggler-delay":
				nf.StragglerDelay = f
			}
		case "outage-len", "stragglers", "crashes", "crash-len", "seed":
			n, err := strconv.ParseInt(val, 10, 64)
			if err != nil {
				return nil, fmt.Errorf("mpic: netfaults %s=%q: %v", key, val, err)
			}
			switch key {
			case "outage-len":
				nf.OutageLen = int(n)
			case "stragglers":
				nf.Stragglers = int(n)
			case "crashes":
				nf.Crashes = int(n)
			case "crash-len":
				nf.CrashLen = int(n)
			case "seed":
				nf.Seed = n
			}
		default:
			return nil, fmt.Errorf("mpic: netfaults %q: unknown key %q (keys: outage, outage-len, spike, spike-delay, stragglers, straggler-delay, crashes, crash-len, seed)", s, key)
		}
	}
	if err := nf.Validate(); err != nil {
		return nil, err
	}
	return nf, nil
}
