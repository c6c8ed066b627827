package network

import (
	"fmt"
	"math"

	"mpic/internal/channel"
	"mpic/internal/detrand"
)

// DelayModel assigns every transmission a virtual-time flight delay,
// measured in round-periods: a symbol sent at the start of round r
// (virtual time r) arrives at r + Delay. The round's deadline is r+1, so
// a delay ≤ 1 is on time and a delay > 1 makes the symbol late — which
// the deadline synchronizer maps onto the paper's insdel noise model
// (a deletion at the deadline, an out-of-band insertion when it lands).
//
// Delay must be a pure function of its arguments and the model's own
// configuration (draw randomness through internal/detrand's site-hashed
// primitives, never a stateful RNG): the DES core relies on it for
// bit-identical replay from a seed at any worker count.
//
// Delay should return a finite positive value. The DES step floors
// anything that is not positive — zero, negative or NaN — at 1e-3
// rounds, so a faulty model cannot wedge the event heap; a +Inf delay
// loses its symbol for good (a deletion that never lands).
type DelayModel interface {
	// Delay returns the flight time, in rounds, of the symbol sent in
	// `round` on the directed link `link`.
	Delay(round int, link channel.Link) float64
	// Lockstep reports whether the model is the unit model (every delay
	// exactly 1.0). The engine runs lockstep models without a fault
	// schedule on the classic synchronous path, byte-identical to the
	// pre-virtual-time engine.
	Lockstep() bool
}

// The sites of every draw the package makes, hashed once: a delay
// model draws per symbol, so re-hashing the label on every draw would
// cost as much as the draw itself.
var (
	siteJitter     = detrand.NewSite("delay-jitter")
	siteLnU1       = detrand.NewSite("delay-ln-u1")
	siteLnU2       = detrand.NewSite("delay-ln-u2")
	siteBand       = detrand.NewSite("delay-band")
	siteBandJitter = detrand.NewSite("delay-band-jitter")
	siteSpike      = detrand.NewSite("net-spike")
	siteOutage     = detrand.NewSite("net-outage")
	siteStraggler  = detrand.NewSite("net-straggler")
	siteCrash      = detrand.NewSite("net-crash")
	siteCrashStart = detrand.NewSite("net-crash-start")
)

// NonFiniteError reports a delay or fault parameter that is NaN or
// infinite. Such a parameter would make every symbol late (+Inf), never
// late (NaN compares false against every deadline), or silently turn a
// fault off, so it is rejected before anything runs.
type NonFiniteError struct {
	// Param names the parameter, e.g. "SpikeDelay" or "lognormal delay
	// parameter".
	Param string
	// Value is the rejected value.
	Value float64
}

func (e *NonFiniteError) Error() string {
	return fmt.Sprintf("network: %s is %g, want a finite number", e.Param, e.Value)
}

// CheckFinite returns a *NonFiniteError naming param if v is NaN or ±Inf.
func CheckFinite(param string, v float64) error {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return &NonFiniteError{Param: param, Value: v}
	}
	return nil
}

// MaxDelay caps delay parameters and lognormal draws, in rounds: a
// billion rounds is past any run's end, while a finite but huge delay
// (1e308) overflows the delay histogram's sums.
const MaxDelay = 1e9

// DelayRangeError reports a finite delay parameter above MaxDelay.
type DelayRangeError struct {
	// Param names the parameter, e.g. "SpikeDelay".
	Param string
	// Value is the rejected value.
	Value float64
}

func (e *DelayRangeError) Error() string {
	return fmt.Sprintf("network: %s is %g rounds, above the %g-round cap", e.Param, e.Value, float64(MaxDelay))
}

// CheckDelay returns CheckFinite's error for a NaN or infinite delay
// parameter and a *DelayRangeError for one above MaxDelay.
func CheckDelay(param string, v float64) error {
	if err := CheckFinite(param, v); err != nil {
		return err
	}
	if v > MaxDelay {
		return &DelayRangeError{Param: param, Value: v}
	}
	return nil
}

// delayOrd folds a (round, link) coordinate into the ordinal fed to the
// site-hashed fault primitives. The multipliers keep distinct
// coordinates from colliding before detrand.Roll's own mixing.
func delayOrd(round int, link channel.Link) uint64 {
	return uint64(round)*0x9e3779b97f4a7c15 ^ uint64(link.From)<<20 ^ uint64(link.To)
}

// linkOrd identifies a directed link alone (round-independent draws,
// e.g. a link's delay band).
func linkOrd(link channel.Link) uint64 {
	return uint64(link.From)<<32 | uint64(link.To)
}

// Unit is the lockstep delay model: every symbol takes exactly one round
// and arrives exactly at its deadline. It reproduces the paper's
// synchronous network.
type Unit struct{}

// Delay implements DelayModel.
func (Unit) Delay(int, channel.Link) float64 { return 1.0 }

// Lockstep implements DelayModel.
func (Unit) Lockstep() bool { return true }

// FixedJitter is base delay plus uniform jitter: each symbol's flight
// time is Base + Jitter·U where U is a seed-deterministic uniform [0,1)
// draw per (round, link). With Base+Jitter ≤ 1 no symbol is ever late;
// pushing the range past 1 makes the tail miss deadlines.
type FixedJitter struct {
	// Base is the minimum flight time in rounds.
	Base float64
	// Jitter is the width of the uniform jitter band in rounds.
	Jitter float64
	// Seed drives the per-symbol draws.
	Seed int64
}

// Delay implements DelayModel.
func (m FixedJitter) Delay(round int, link channel.Link) float64 {
	return m.Base + m.Jitter*detrand.Roll(m.Seed, siteJitter, delayOrd(round, link))
}

// Lockstep implements DelayModel.
func (m FixedJitter) Lockstep() bool { return false }

// Lognormal draws flight times from a lognormal distribution — the
// standard model of legitimate wide-area latency (cf. the
// satnet-simulator's LegitMu/LegitSigma): median Median, log-scale
// spread Sigma. The heavy upper tail produces occasional late symbols.
// Delays are clamped below at a small positive floor and above at
// maxLognormalDelay, so every finite Sigma yields finite delays.
type Lognormal struct {
	// Median is the distribution's median flight time in rounds.
	Median float64
	// Sigma is the log-scale standard deviation.
	Sigma float64
	// Seed drives the per-symbol draws.
	Seed int64
}

// Delay implements DelayModel.
func (m Lognormal) Delay(round int, link channel.Link) float64 {
	ord := delayOrd(round, link)
	// Box–Muller from two independent site-hashed uniforms; u1 is kept
	// away from 0 so the log stays finite.
	u1 := detrand.Roll(m.Seed, siteLnU1, ord)
	u2 := detrand.Roll(m.Seed, siteLnU2, ord)
	if u1 < 1e-12 {
		u1 = 1e-12
	}
	z := math.Sqrt(-2*math.Log(u1)) * math.Cos(2*math.Pi*u2)
	d := m.Median * math.Exp(m.Sigma*z)
	if d < 1e-3 {
		d = 1e-3
	}
	// Without the cap a Sigma above about 95 overflows the exponential
	// to +Inf.
	if d > MaxDelay {
		d = MaxDelay
	}
	return d
}

// Lockstep implements DelayModel.
func (m Lognormal) Lockstep() bool { return false }

// Band is one latency class of the Bands model: flight times uniform in
// [Base, Base+Jitter).
type Band struct {
	// Fraction is the probability a directed link belongs to this band;
	// fractions should sum to 1 (the last band absorbs any remainder).
	Fraction float64
	// Base and Jitter shape the band's uniform delay, in rounds.
	Base, Jitter float64
}

// Bands is the heterogeneous per-link model (à la the satnet-simulator's
// SatellitePath classes — LEO-fast vs GEO-slow): each directed link is
// assigned one Band once, by a seed-deterministic draw, and all its
// symbols fly with that band's base+jitter delay.
type Bands struct {
	// Bands are the latency classes; must be non-empty.
	Bands []Band
	// Seed drives both the band assignment and the per-symbol jitter.
	Seed int64
}

// band returns the band a directed link is assigned to.
func (m Bands) band(link channel.Link) Band {
	u := detrand.Roll(m.Seed, siteBand, linkOrd(link))
	acc := 0.0
	for _, b := range m.Bands {
		acc += b.Fraction
		if u < acc {
			return b
		}
	}
	return m.Bands[len(m.Bands)-1]
}

// Delay implements DelayModel.
func (m Bands) Delay(round int, link channel.Link) float64 {
	b := m.band(link)
	return b.Base + b.Jitter*detrand.Roll(m.Seed, siteBandJitter, delayOrd(round, link))
}

// Lockstep implements DelayModel.
func (m Bands) Lockstep() bool { return false }
