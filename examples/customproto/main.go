// Customproto shows the library's extension point: implementing the
// Protocol interface for your own distributed computation and running it
// through the coding schemes. The protocol here is a two-phase
// "max finder" on a star: leaves stream their 8-bit values to the hub,
// the hub streams the maximum back.
//
// Run with:
//
//	go run ./examples/customproto
package main

import (
	"context"
	"fmt"
	"log"

	"mpic"
)

const valueBits = 8

// maxFinder implements mpic.Protocol (= protocol.Protocol).
type maxFinder struct {
	g      *mpic.Graph
	sched  *mpic.Schedule
	inputs [][]byte
}

func newMaxFinder(n int, inputs [][]byte) *maxFinder {
	g := starGraph(n)
	var rounds [][]mpic.Transmission
	// Phase 1: every leaf streams its value to the hub, bit-serially,
	// all leaves in parallel.
	for b := 0; b < valueBits; b++ {
		var txs []mpic.Transmission
		for leaf := 1; leaf < n; leaf++ {
			txs = append(txs, mpic.Transmission{From: mpic.Node(leaf), To: 0})
		}
		rounds = append(rounds, txs)
	}
	// Phase 2: the hub streams the maximum back to every leaf.
	for b := 0; b < valueBits; b++ {
		var txs []mpic.Transmission
		for leaf := 1; leaf < n; leaf++ {
			txs = append(txs, mpic.Transmission{From: 0, To: mpic.Node(leaf)})
		}
		rounds = append(rounds, txs)
	}
	// The schedule indexes each link's rounds by g's link numbering, so
	// it is built over the graph Graph returns.
	return &maxFinder{g: g, sched: mpic.NewSchedule(g, rounds), inputs: inputs}
}

func (p *maxFinder) Name() string             { return "max-finder" }
func (p *maxFinder) Graph() *mpic.Graph       { return p.g }
func (p *maxFinder) Schedule() *mpic.Schedule { return p.sched }
func (p *maxFinder) Input(n mpic.Node) []byte { return p.inputs[n] }

func value(in []byte) byte {
	if len(in) == 0 {
		return 0
	}
	return in[0]
}

// hubMax recomputes the maximum the hub has observed so far.
func (p *maxFinder) hubMax(v mpic.View) byte {
	max := value(v.Input())
	for leaf := 1; leaf < p.g.N(); leaf++ {
		var x byte
		for b := 0; b < valueBits; b++ {
			x |= v.Observed(mpic.Link{From: mpic.Node(leaf), To: 0}, b).Bit() << uint(b)
		}
		if x > max {
			max = x
		}
	}
	return max
}

func (p *maxFinder) SendBit(v mpic.View, r int, tx mpic.Transmission, seq int) byte {
	if r < valueBits {
		// Leaf streaming its own value, LSB first.
		return value(v.Input()) >> uint(seq) & 1
	}
	// Hub streaming the maximum.
	return p.hubMax(v) >> uint(seq) & 1
}

func (p *maxFinder) Output(v mpic.View) []byte {
	if v.Self() == 0 {
		return []byte{p.hubMax(v)}
	}
	var x byte
	for b := 0; b < valueBits; b++ {
		x |= v.Observed(mpic.Link{From: 0, To: v.Self()}, b).Bit() << uint(b)
	}
	return []byte{x}
}

// starGraph builds a star using only the public topology API.
func starGraph(n int) *mpic.Graph {
	g, err := mpic.NewTopology("star", n)
	if err != nil {
		panic(err)
	}
	return g
}

var _ mpic.Protocol = (*maxFinder)(nil)

func main() {
	const n = 6
	inputs := [][]byte{{17}, {203}, {44}, {91}, {155}, {68}}
	proto := newMaxFinder(n, inputs)

	// Star topologies are the JKL15 setting; run the custom protocol
	// through Algorithm A under the hand-rolled deletion noise. A
	// UseProtocol workload brings its own topology, so the scenario
	// leaves Topology empty.
	res, err := mpic.RunScenario(context.Background(), mpic.Scenario{
		Workload: mpic.UseProtocol(proto),
		Scheme:   mpic.AlgorithmA,
		Noise:    mpic.CustomNoise("every-400th", noise{}),
		Seed:     5,
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("max-finder on a star of %d, under hand-rolled deletion noise:\n", n)
	fmt.Printf("  success=%v, every party decided max=%d (true max 203)\n",
		res.Success, res.Outputs[1][0])
	fmt.Printf("  %d corruptions, %d iterations, blowup %.1fx\n",
		res.Metrics.TotalCorruptions(), res.Iterations, res.Blowup)
}

// noise is a tiny custom adversary: it deletes every 400th transmission
// network-wide — showing that Adversary is also an extension point.
type noise struct{}

var count int

func (noise) Corrupt(_ int, _ mpic.Link, sent mpic.Symbol) mpic.Symbol {
	if sent == mpic.Silence {
		return sent
	}
	count++
	if count%400 == 0 {
		return mpic.Silence
	}
	return sent
}
