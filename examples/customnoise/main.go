// Customnoise demonstrates the library's open registries: a third-party
// package registers its own topology family, workload, and noise model —
// using only the public API — and they become first-class citizens: the
// typed specs, the legacy string Config, and the command-line tools all
// accept the new names.
//
// The cast:
//
//   - topology "wheel":      a hub connected to every rim party, plus the
//     rim cycle — denser than a star, sparser than a clique.
//   - workload "echo":       party 0 streams its input to party 1 one bit
//     per round, and party 1 echoes each bit back.
//   - noise "every-kth":     deletes every k-th payload bit on one random
//     link, k derived from the configured rate.
//
// Run with:
//
//	go run ./examples/customnoise
package main

import (
	"context"
	"fmt"
	"log"

	"mpic"
)

// init registers the three extensions; after this, "wheel", "echo" and
// "every-kth" behave exactly like built-in names.
func init() {
	if err := mpic.RegisterTopology("wheel", buildWheel); err != nil {
		panic(err)
	}
	if err := mpic.RegisterWorkload("echo", mpic.WorkloadDef{Build: buildEcho}); err != nil {
		panic(err)
	}
	if err := mpic.RegisterNoise("every-kth", everyKth); err != nil {
		panic(err)
	}
}

// buildWheel is a TopologyBuilder: hub 0 plus the rim cycle 1..n-1.
func buildWheel(n int) (*mpic.Graph, error) {
	if n < 4 {
		return nil, fmt.Errorf("wheel needs n >= 4, got %d", n)
	}
	g := mpic.NewGraph(n)
	for i := 1; i < n; i++ {
		if err := g.AddEdge(0, mpic.Node(i)); err != nil {
			return nil, err
		}
		next := i%(n-1) + 1
		if err := g.AddEdge(mpic.Node(i), mpic.Node(next)); err != nil {
			return nil, err
		}
	}
	if err := g.Validate(); err != nil {
		return nil, err
	}
	return g, nil
}

// echoBits is the payload length party 0 streams.
const echoBits = 16

// echoProto implements mpic.Protocol: 0 streams its value to 1 bit by
// bit, and 1 echoes each bit straight back, for rounds/2 exchanges.
type echoProto struct {
	g     *mpic.Graph
	sched *mpic.Schedule
	value uint16
}

// buildEcho is a WorkloadBuilder over any topology containing the edge
// 0–1 (every registered family does, including "wheel").
func buildEcho(g *mpic.Graph, rounds int, seed int64) (mpic.Protocol, error) {
	if !g.HasEdge(0, 1) {
		return nil, fmt.Errorf("echo workload needs the edge 0-1")
	}
	var rr [][]mpic.Transmission
	for r := 0; r < rounds; r++ {
		if r%2 == 0 {
			rr = append(rr, []mpic.Transmission{{From: 0, To: 1}})
		} else {
			rr = append(rr, []mpic.Transmission{{From: 1, To: 0}})
		}
	}
	// Built over the topology the run hands in: the schedule numbers its
	// links the way g does.
	return &echoProto{g: g, sched: mpic.NewSchedule(g, rr), value: uint16(seed*40503 + 977)}, nil
}

func (p *echoProto) Name() string             { return "echo" }
func (p *echoProto) Graph() *mpic.Graph       { return p.g }
func (p *echoProto) Schedule() *mpic.Schedule { return p.sched }
func (p *echoProto) Input(n mpic.Node) []byte {
	if n == 0 {
		return []byte{byte(p.value), byte(p.value >> 8)}
	}
	return nil
}

func (p *echoProto) SendBit(v mpic.View, r int, tx mpic.Transmission, seq int) byte {
	if tx.From == 0 {
		return byte(p.value >> uint(seq%echoBits) & 1)
	}
	// The echo: return the seq-th bit observed from party 0.
	return v.Observed(mpic.Link{From: 0, To: 1}, seq).Bit()
}

// Output: party 0 folds the echoed bits, party 1 folds what it heard;
// everyone else outputs nothing (they are topology, not participants).
func (p *echoProto) Output(v mpic.View) []byte {
	var from mpic.Link
	switch v.Self() {
	case 0:
		from = mpic.Link{From: 1, To: 0}
	case 1:
		from = mpic.Link{From: 0, To: 1}
	default:
		return nil
	}
	n := p.sched.CountOn(from)
	out := make([]byte, (n+7)/8)
	for i := 0; i < n; i++ {
		out[i/8] |= v.Observed(from, i).Bit() << uint(i%8)
	}
	return out
}

var _ mpic.Protocol = (*echoProto)(nil)

// periodicDropper deletes every k-th payload bit on one directed link.
type periodicDropper struct {
	target mpic.Link
	k      int
	seen   int
	used   int
}

func (d *periodicDropper) Corrupt(_ int, link mpic.Link, sent mpic.Symbol) mpic.Symbol {
	if link != d.target || sent == mpic.Silence {
		return sent
	}
	d.seen++
	if d.seen%d.k != 0 {
		return sent
	}
	d.used++
	return mpic.Silence
}

// everyKth is a NoiseFamily: rate µ maps to dropping every ⌈1/µ⌉-th
// payload bit on a uniformly random link.
func everyKth(rate float64) mpic.NoiseSpec {
	return mpic.NoiseFunc("every-kth", func(env mpic.NoiseEnv) (mpic.WiredNoise, error) {
		k := 1 << 20
		if rate > 0 {
			k = int(1/rate) + 1
		}
		links := env.Links()
		return mpic.WiredNoise{
			Adversary: &periodicDropper{target: links[env.Rng.Intn(len(links))], k: k},
		}, nil
	})
}

// run executes the all-custom scenario (split from main so the example's
// test can drive it).
func run() (*mpic.Result, error) {
	runner := mpic.NewRunner()
	defer runner.Close()
	return runner.Run(context.Background(), mpic.Scenario{
		Topology: mpic.Topology("wheel", 8),
		Workload: mpic.Workload("echo", 160),
		Scheme:   mpic.AlgorithmA,
		Noise:    mustNoise("every-kth", 0.005),
		Seed:     9,
	})
}

func mustNoise(name string, rate float64) mpic.NoiseSpec {
	spec, err := mpic.Noise(name, rate)
	if err != nil {
		panic(err)
	}
	return spec
}

func main() {
	res, err := run()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("echo over a wheel of 8 under every-kth deletions (all third-party pieces):\n")
	fmt.Printf("  success=%v, %d corruptions survived, %d iterations, blowup %.1fx\n",
		res.Success, res.Metrics.TotalCorruptions(), res.Iterations, res.Blowup)
}
