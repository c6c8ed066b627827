package protocol

import (
	"mpic/internal/channel"
	"mpic/internal/graph"
)

// PhaseKing is the classic phase-king agreement pattern over a clique:
// in each phase every party broadcasts its current bit, counts the
// votes, and — unless its majority was overwhelming — adopts the bit the
// phase's king broadcasts. After `phases` ≥ 1 phases all parties hold a
// common bit. As a workload it exercises dense all-to-all rounds
// followed by sparse one-to-all rounds, with content that depends on
// everything received so far — the opposite communication shape from the
// line workloads.
type PhaseKing struct {
	g      *graph.Graph
	sched  *Schedule
	inputs [][]byte
	phases int
}

var _ Protocol = (*PhaseKing)(nil)

// NewPhaseKing builds the workload on a clique of n ≥ 3 parties.
func NewPhaseKing(n, phases int, inputs [][]byte) *PhaseKing {
	g := graph.Clique(n)
	var sch [][]Transmission
	for ph := 0; ph < phases; ph++ {
		// Vote round: everyone tells everyone its current bit.
		var all []Transmission
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				if i != j {
					all = append(all, Transmission{From: graph.Node(i), To: graph.Node(j)})
				}
			}
		}
		sch = append(sch, all)
		// King round: party (ph mod n) broadcasts.
		king := graph.Node(ph % n)
		var kb []Transmission
		for j := 0; j < n; j++ {
			if graph.Node(j) != king {
				kb = append(kb, Transmission{From: king, To: graph.Node(j)})
			}
		}
		sch = append(sch, kb)
	}
	return &PhaseKing{g: g, sched: NewSchedule(g, sch), inputs: padInputs(inputs, n), phases: phases}
}

// Name implements Protocol.
func (p *PhaseKing) Name() string { return "phase-king" }

// Graph implements Protocol.
func (p *PhaseKing) Graph() *graph.Graph { return p.g }

// Schedule implements Protocol.
func (p *PhaseKing) Schedule() *Schedule { return p.sched }

// Input implements Protocol.
func (p *PhaseKing) Input(n graph.Node) []byte { return p.inputs[n] }

// valueAt replays the party's state machine from its observations: its
// bit entering phase `upTo` (0 = initial input parity).
func (p *PhaseKing) valueAt(v View, upTo int) byte {
	n := p.g.N()
	self := v.Self()
	val := parityOf(v.Input())
	for ph := 0; ph < upTo; ph++ {
		// Count votes observed in phase ph's vote round (own bit counts).
		ones := int(val)
		for j := 0; j < n; j++ {
			if graph.Node(j) == self {
				continue
			}
			if p.voteOf(v, graph.Node(j), ph) == 1 {
				ones++
			}
		}
		maj := byte(0)
		if 2*ones > n {
			maj = 1
		}
		count := ones
		if maj == 0 {
			count = n - ones
		}
		// Strong majority keeps its own decision; otherwise follow the
		// king.
		if 3*count > 2*n {
			val = maj
			continue
		}
		king := graph.Node(ph % n)
		if king == self {
			val = maj
		} else {
			val = p.kingBitOf(v, king, ph)
		}
	}
	return val
}

// voteOf reads the bit party j sent to self in phase ph's vote round.
func (p *PhaseKing) voteOf(v View, j graph.Node, ph int) byte {
	// Link j→self carries one vote per phase, plus king broadcasts in the
	// phases where j was king (which come after the vote in the same
	// phase). Compute the sequence index by counting.
	seq := 0
	n := p.g.N()
	for q := 0; q < ph; q++ {
		seq++ // vote of phase q
		if graph.Node(q%n) == j {
			seq++ // king broadcast of phase q
		}
	}
	return v.Observed(channel.Link{From: j, To: v.Self()}, seq).Bit()
}

// kingBitOf reads the king's broadcast to self in phase ph.
func (p *PhaseKing) kingBitOf(v View, king graph.Node, ph int) byte {
	n := p.g.N()
	seq := 0
	for q := 0; q <= ph; q++ {
		seq++ // vote of phase q
		if q < ph && graph.Node(q%n) == king {
			seq++
		}
	}
	// seq now indexes the king broadcast of phase ph on link king→self.
	return v.Observed(channel.Link{From: king, To: v.Self()}, seq).Bit()
}

// SendBit implements Protocol.
func (p *PhaseKing) SendBit(v View, r int, tx Transmission, _ int) byte {
	ph := r / 2
	if r%2 == 0 {
		// Vote round: current value entering this phase.
		return p.valueAt(v, ph)
	}
	// King round: the king sends its updated majority for this phase.
	return p.kingDecision(v, ph)
}

// kingDecision is the king's freshly computed majority in phase ph.
func (p *PhaseKing) kingDecision(v View, ph int) byte {
	n := p.g.N()
	self := v.Self()
	val := p.valueAt(v, ph)
	ones := int(val)
	for j := 0; j < n; j++ {
		if graph.Node(j) == self {
			continue
		}
		if p.voteOf(v, graph.Node(j), ph) == 1 {
			ones++
		}
	}
	if 2*ones > n {
		return 1
	}
	return 0
}

// Output implements Protocol: the party's bit after the last phase.
func (p *PhaseKing) Output(v View) []byte {
	return []byte{p.valueAt(v, p.phases)}
}
