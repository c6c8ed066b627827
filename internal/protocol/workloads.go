package protocol

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math/rand"

	"mpic/internal/channel"
	"mpic/internal/graph"
)

// FixedTopology reports the topology family the named registered
// workload runs on ("" = any connected topology), or an error for an
// unregistered name. The workload registry lives in package mpic, which
// installs this at init; internal/gridspec resolves workload names
// through it without the registry joining the public API.
var FixedTopology func(workload string) (string, error)

// prfBit derives a deterministic pseudo-random bit from its arguments; it
// gives workloads input-dependent but reproducible content.
func prfBit(parts ...uint64) byte {
	h := fnv.New64a()
	var buf [8]byte
	for _, p := range parts {
		binary.LittleEndian.PutUint64(buf[:], p)
		h.Write(buf[:])
	}
	return byte(h.Sum64() & 1)
}

func inputDigest(in []byte) uint64 {
	h := fnv.New64a()
	h.Write(in)
	return h.Sum64()
}

// foldView digests every observation a party holds on its incident links,
// in schedule order; workloads use it as their output function so that a
// single corrupted surviving bit anywhere flips the output.
func foldView(v View, sched *Schedule, g *graph.Graph) []byte {
	h := fnv.New64a()
	h.Write(v.Input())
	var buf [8]byte
	self := v.Self()
	for _, w := range g.Neighbors(self) {
		for _, l := range []channel.Link{{From: self, To: w}, {From: w, To: self}} {
			n := sched.CountOn(l)
			for seq := 0; seq < n; seq++ {
				binary.LittleEndian.PutUint64(buf[:], uint64(v.Observed(l, seq)))
				h.Write(buf[:1])
			}
		}
	}
	out := make([]byte, 8)
	binary.LittleEndian.PutUint64(out, h.Sum64())
	return out
}

// lastObservedBit returns the most recent bit the party observed on
// directed link l strictly before round r (0 if none).
func lastObservedBit(v View, sched *Schedule, l channel.Link, r int) byte {
	seq := sched.CountBefore(l, r)
	if seq == 0 {
		return 0
	}
	return v.Observed(l, seq-1).Bit()
}

// Random is a generic worst-case workload: a pseudo-random sparse
// speaking schedule over an arbitrary topology, with content that chains
// each sent bit to the sender's latest observations, so any surviving
// corruption cascades into every later transmission of that party.
type Random struct {
	g      *graph.Graph
	sched  *Schedule
	inputs [][]byte
}

var _ Protocol = (*Random)(nil)

// NewRandom builds a Random workload with the given number of Π rounds
// and per-(round, directed link) speaking density in (0,1].
func NewRandom(g *graph.Graph, rounds int, density float64, seed int64, inputs [][]byte) *Random {
	rng := rand.New(rand.NewSource(seed))
	var links []channel.Link
	for _, e := range g.Edges() {
		links = append(links, channel.Link{From: e.U, To: e.V}, channel.Link{From: e.V, To: e.U})
	}
	sch := make([][]Transmission, rounds)
	for r := 0; r < rounds; r++ {
		for _, l := range links {
			if rng.Float64() < density {
				sch[r] = append(sch[r], Transmission{From: l.From, To: l.To})
			}
		}
		if len(sch[r]) == 0 {
			l := links[rng.Intn(len(links))]
			sch[r] = append(sch[r], Transmission{From: l.From, To: l.To})
		}
	}
	return &Random{g: g, sched: NewSchedule(sch), inputs: padInputs(inputs, g.N())}
}

// Name implements Protocol.
func (p *Random) Name() string { return "random" }

// Graph implements Protocol.
func (p *Random) Graph() *graph.Graph { return p.g }

// Schedule implements Protocol.
func (p *Random) Schedule() *Schedule { return p.sched }

// Input implements Protocol.
func (p *Random) Input(n graph.Node) []byte { return p.inputs[n] }

// SendBit implements Protocol: a PRF of (input, position) XOR the latest
// bit observed from the receiving party, which chains transcripts across
// the link in both directions.
func (p *Random) SendBit(v View, r int, tx Transmission, seq int) byte {
	prev := lastObservedBit(v, p.sched, channel.Link{From: tx.To, To: tx.From}, r)
	return prfBit(inputDigest(v.Input()), uint64(tx.To), uint64(seq)) ^ prev
}

// Output implements Protocol.
func (p *Random) Output(v View) []byte { return foldView(v, p.sched, p.g) }

// PipelinedLine is the paper's Section 1.2 motivating workload on the
// line topology: each block relays a bit from party 0 down the line, then
// the two far-end parties chatter back and forth. An early corruption
// makes all the expensive far-end chatter worthless — the scenario that
// motivates the flag-passing phase.
type PipelinedLine struct {
	g       *graph.Graph
	sched   *Schedule
	inputs  [][]byte
	blocks  int
	chatter int
}

var _ Protocol = (*PipelinedLine)(nil)

// NewPipelinedLine builds the workload with the given number of blocks
// and chatter messages per block.
func NewPipelinedLine(n, blocks, chatter int, inputs [][]byte) (*PipelinedLine, error) {
	if n < 3 {
		return nil, fmt.Errorf("protocol: pipelined line needs n >= 3, got %d", n)
	}
	g := graph.Line(n)
	var sch [][]Transmission
	for b := 0; b < blocks; b++ {
		for i := 0; i+1 < n; i++ {
			sch = append(sch, []Transmission{{From: graph.Node(i), To: graph.Node(i + 1)}})
		}
		for c := 0; c < chatter; c++ {
			if c%2 == 0 {
				sch = append(sch, []Transmission{{From: graph.Node(n - 1), To: graph.Node(n - 2)}})
			} else {
				sch = append(sch, []Transmission{{From: graph.Node(n - 2), To: graph.Node(n - 1)}})
			}
		}
	}
	return &PipelinedLine{
		g:       g,
		sched:   NewSchedule(sch),
		inputs:  padInputs(inputs, n),
		blocks:  blocks,
		chatter: chatter,
	}, nil
}

// Name implements Protocol.
func (p *PipelinedLine) Name() string { return "pipelined-line" }

// Graph implements Protocol.
func (p *PipelinedLine) Graph() *graph.Graph { return p.g }

// Schedule implements Protocol.
func (p *PipelinedLine) Schedule() *Schedule { return p.sched }

// Input implements Protocol.
func (p *PipelinedLine) Input(n graph.Node) []byte { return p.inputs[n] }

// SendBit implements Protocol. Each block spans (n-1) relay rounds then
// `chatter` chatter rounds, so the round position within the block
// determines the transmission's role.
func (p *PipelinedLine) SendBit(v View, r int, tx Transmission, seq int) byte {
	n := p.g.N()
	pos := r % ((n - 1) + p.chatter)
	self := v.Self()
	own := prfBit(inputDigest(v.Input()), uint64(seq), uint64(tx.To))
	if pos < n-1 {
		// Relay transmission i → i+1: XOR own input bit into what arrived
		// from the left (party 0 originates).
		if self == 0 {
			return own
		}
		fromLeft := lastObservedBit(v, p.sched, channel.Link{From: self - 1, To: self}, r)
		return fromLeft ^ own
	}
	// Far-end chatter: echo the latest bit seen from the peer, XOR a
	// per-step input bit.
	fromPeer := lastObservedBit(v, p.sched, channel.Link{From: tx.To, To: self}, r)
	return fromPeer ^ own
}

// Output implements Protocol.
func (p *PipelinedLine) Output(v View) []byte { return foldView(v, p.sched, p.g) }

// TreeSum computes the sum of all parties' integer inputs by repeated
// convergecast + broadcast epochs over a BFS spanning tree: the classic
// global-aggregation workload.
type TreeSum struct {
	g      *graph.Graph
	tree   *graph.SpanningTree
	sched  *Schedule
	inputs [][]byte
	epochs int
	width  int // accumulator bit width
}

var _ Protocol = (*TreeSum)(nil)

// NewTreeSum builds the workload: epochs rounds of summation of valueBits
// inputs over the BFS tree of g rooted at node 0.
func NewTreeSum(g *graph.Graph, epochs, valueBits int, inputs [][]byte) *TreeSum {
	tree := g.BFSTree(0)
	width := valueBits + bitsFor(g.N()) + 1
	byLevel := make([][]graph.Node, tree.Depth+1) // ascending within a level
	for v := 0; v < g.N(); v++ {
		byLevel[tree.Level[v]] = append(byLevel[tree.Level[v]], graph.Node(v))
	}
	sch := make([][]Transmission, 0, 2*epochs*(tree.Depth-1)*width)
	for e := 0; e < epochs; e++ {
		// Convergecast: levels deepest-first; all nodes of a level send
		// their width-bit subtree sums in parallel, bit-serially.
		for lvl := tree.Depth; lvl >= 2; lvl-- {
			for b := 0; b < width; b++ {
				txs := make([]Transmission, 0, len(byLevel[lvl]))
				for _, v := range byLevel[lvl] {
					txs = append(txs, Transmission{From: v, To: tree.Parent[v]})
				}
				if len(txs) > 0 {
					sch = append(sch, txs)
				}
			}
		}
		// Broadcast: levels top-down.
		for lvl := 1; lvl < tree.Depth; lvl++ {
			for b := 0; b < width; b++ {
				var txs []Transmission
				for _, v := range byLevel[lvl] {
					for _, c := range tree.Children[v] {
						txs = append(txs, Transmission{From: v, To: c})
					}
				}
				if len(txs) > 0 {
					sch = append(sch, txs)
				}
			}
		}
	}
	return &TreeSum{
		g:      g,
		tree:   tree,
		sched:  NewSchedule(sch),
		inputs: padInputs(inputs, g.N()),
		epochs: epochs,
		width:  width,
	}
}

// Name implements Protocol.
func (p *TreeSum) Name() string { return "tree-sum" }

// Graph implements Protocol.
func (p *TreeSum) Graph() *graph.Graph { return p.g }

// Schedule implements Protocol.
func (p *TreeSum) Schedule() *Schedule { return p.sched }

// Input implements Protocol.
func (p *TreeSum) Input(n graph.Node) []byte { return p.inputs[n] }

// value decodes a party's input as an integer, bounded by valueBits.
func (p *TreeSum) value(in []byte) uint64 {
	var x uint64
	for i := 0; i < len(in) && i < 4; i++ {
		x |= uint64(in[i]) << uint(8*i)
	}
	return x % (1 << uint(p.width-bitsFor(p.g.N())-1))
}

// subtreeSum computes the sum of v's subtree in the given epoch from the
// child values the party has observed.
func (p *TreeSum) subtreeSum(v View, epoch int) uint64 {
	self := v.Self()
	sum := p.value(v.Input())
	for _, c := range p.tree.Children[self] {
		sum += p.readValue(v, channel.Link{From: c, To: self}, epoch)
	}
	return sum & ((1 << uint(p.width)) - 1)
}

// readValue decodes the width-bit value transmitted on l during epoch.
func (p *TreeSum) readValue(v View, l channel.Link, epoch int) uint64 {
	var x uint64
	for b := 0; b < p.width; b++ {
		x |= uint64(v.Observed(l, epoch*p.width+b).Bit()) << uint(b)
	}
	return x
}

// SendBit implements Protocol.
func (p *TreeSum) SendBit(v View, _ int, tx Transmission, seq int) byte {
	epoch := seq / p.width
	b := seq % p.width
	self := v.Self()
	if tx.To == p.tree.Parent[self] {
		return byte(p.subtreeSum(v, epoch) >> uint(b) & 1)
	}
	// Downward: root originates the total, others forward their parent's
	// broadcast.
	if self == p.tree.Root {
		return byte(p.subtreeSum(v, epoch) >> uint(b) & 1)
	}
	parentLink := channel.Link{From: p.tree.Parent[self], To: self}
	return v.Observed(parentLink, epoch*p.width+b).Bit()
}

// Output implements Protocol: the total from the final epoch (parties
// learn it from their parent's broadcast; the root computes it).
func (p *TreeSum) Output(v View) []byte {
	self := v.Self()
	last := p.epochs - 1
	var total uint64
	if self == p.tree.Root {
		total = p.subtreeSum(v, last)
	} else {
		total = p.readValue(v, channel.Link{From: p.tree.Parent[self], To: self}, last)
	}
	out := make([]byte, 8)
	binary.LittleEndian.PutUint64(out, total)
	return out
}

// TokenRing circulates a parity token around a ring for a number of laps;
// each hop XORs the holder's input parity into the token.
type TokenRing struct {
	g      *graph.Graph
	sched  *Schedule
	inputs [][]byte
}

var _ Protocol = (*TokenRing)(nil)

// NewTokenRing builds the workload on a ring of n >= 3 parties.
func NewTokenRing(n, laps int, inputs [][]byte) (*TokenRing, error) {
	if n < 3 {
		return nil, fmt.Errorf("protocol: token ring needs n >= 3, got %d", n)
	}
	g := graph.Ring(n)
	var sch [][]Transmission
	for r := 0; r < n*laps; r++ {
		from := graph.Node(r % n)
		to := graph.Node((r + 1) % n)
		sch = append(sch, []Transmission{{From: from, To: to}})
	}
	return &TokenRing{g: g, sched: NewSchedule(sch), inputs: padInputs(inputs, n)}, nil
}

// Name implements Protocol.
func (p *TokenRing) Name() string { return "token-ring" }

// Graph implements Protocol.
func (p *TokenRing) Graph() *graph.Graph { return p.g }

// Schedule implements Protocol.
func (p *TokenRing) Schedule() *Schedule { return p.sched }

// Input implements Protocol.
func (p *TokenRing) Input(n graph.Node) []byte { return p.inputs[n] }

// parityOf returns the parity of the party's input bytes.
func parityOf(in []byte) byte {
	var x byte
	for _, b := range in {
		x ^= b
	}
	x ^= x >> 4
	x ^= x >> 2
	x ^= x >> 1
	return x & 1
}

// SendBit implements Protocol.
func (p *TokenRing) SendBit(v View, r int, tx Transmission, _ int) byte {
	self := v.Self()
	n := p.g.N()
	prevNode := graph.Node((int(self) + n - 1) % n)
	token := lastObservedBit(v, p.sched, channel.Link{From: prevNode, To: self}, r)
	return token ^ parityOf(v.Input())
}

// Output implements Protocol.
func (p *TokenRing) Output(v View) []byte { return foldView(v, p.sched, p.g) }

// padInputs normalizes the input slice to n entries, deriving missing
// ones deterministically so workloads always have defined inputs.
func padInputs(inputs [][]byte, n int) [][]byte {
	out := make([][]byte, n)
	for i := 0; i < n; i++ {
		if i < len(inputs) && len(inputs[i]) > 0 {
			out[i] = inputs[i]
		} else {
			out[i] = []byte{byte(37*i + 11), byte(i)}
		}
	}
	return out
}

func bitsFor(n int) int {
	b := 0
	for v := n; v > 0; v >>= 1 {
		b++
	}
	return b
}

// DefaultInputs derives n deterministic pseudo-random inputs of the given
// byte length from a seed; experiments use it for reproducible workloads.
func DefaultInputs(n, bytes int, seed int64) [][]byte {
	rng := rand.New(rand.NewSource(seed))
	out := make([][]byte, n)
	for i := range out {
		out[i] = make([]byte, bytes)
		rng.Read(out[i])
	}
	return out
}
