// Package protocol models the noiseless protocols Π the coding schemes
// simulate: synchronous protocols over a network G with a fixed,
// input-independent order of speaking (Section 2.1). Only message
// *content* may depend on inputs and observed history.
package protocol

import (
	"cmp"
	"errors"
	"fmt"
	"slices"

	"mpic/internal/bitstring"
	"mpic/internal/channel"
	"mpic/internal/graph"
)

// Transmission is one scheduled symbol: From sends one bit to To.
type Transmission struct {
	From, To graph.Node
}

// Link returns the directed link the transmission uses.
func (t Transmission) Link() channel.Link { return channel.Link{From: t.From, To: t.To} }

// Schedule is the fixed speaking order of a protocol: for every round, the
// set of directed transmissions that occur. It is known to all parties
// and independent of inputs — the standing assumption of the paper.
type Schedule struct {
	g      *graph.Graph
	rounds [][]Transmission
	total  int
	// The rounds of the transmissions on the directed link numbered li
	// by graph.LinkIndex are txRounds[linkStart[li]:linkStart[li+1]],
	// ascending. Transmissions on non-edges are not indexed (Validate
	// rejects them).
	linkStart []int32
	txRounds  []int32
}

// linkCmp orders directed links by (From, To).
func linkCmp(a, b channel.Link) int {
	if a.From != b.From {
		return cmp.Compare(a.From, b.From)
	}
	return cmp.Compare(a.To, b.To)
}

// txCmp orders transmissions by their links.
func txCmp(a, b Transmission) int { return linkCmp(a.Link(), b.Link()) }

// NewSchedule builds a schedule over graph g from per-round
// transmissions. Within each round, transmissions are normalized to a
// deterministic order. Each directed link's rounds are indexed by its
// graph.LinkIndex in O(|Π| + m) time and memory beyond those per-round
// sorts: one counting pass, one filling pass.
func NewSchedule(g *graph.Graph, rounds [][]Transmission) *Schedule {
	nl := 2 * g.M()
	s := &Schedule{g: g, rounds: rounds, linkStart: make([]int32, nl+1)}
	// Count each link's transmissions at linkStart[li+1]; the prefix sums
	// then make linkStart[li] the start of li's run.
	for _, txs := range rounds {
		if !slices.IsSortedFunc(txs, txCmp) {
			slices.SortFunc(txs, txCmp)
		}
		s.total += len(txs)
		for _, tx := range txs {
			if li := g.LinkIndex(tx.From, tx.To); li >= 0 {
				s.linkStart[li+1]++
			}
		}
	}
	for li := 1; li <= nl; li++ {
		s.linkStart[li] += s.linkStart[li-1]
	}
	// Fill each run with linkStart[li] as its cursor, which leaves
	// linkStart[li] at the run's end; shifting by one restores the starts.
	s.txRounds = make([]int32, s.linkStart[nl])
	for r, txs := range rounds {
		for _, tx := range txs {
			if li := g.LinkIndex(tx.From, tx.To); li >= 0 {
				s.txRounds[s.linkStart[li]] = int32(r)
				s.linkStart[li]++
			}
		}
	}
	copy(s.linkStart[1:], s.linkStart[:nl])
	s.linkStart[0] = 0
	return s
}

// linkRounds returns the ascending rounds of the transmissions on the
// directed link numbered li by graph.LinkIndex. The slice is owned by
// the schedule.
func (s *Schedule) linkRounds(li int) []int32 {
	return s.txRounds[s.linkStart[li]:s.linkStart[li+1]]
}

// roundsOn returns the ascending rounds of l's transmissions (nil for a
// non-edge).
func (s *Schedule) roundsOn(l channel.Link) []int32 {
	if li := s.g.LinkIndex(l.From, l.To); li >= 0 {
		return s.linkRounds(li)
	}
	return nil
}

// Rounds returns the number of rounds.
func (s *Schedule) Rounds() int { return len(s.rounds) }

// At returns the transmissions of round r (owned by the schedule).
func (s *Schedule) At(r int) []Transmission { return s.rounds[r] }

// TotalBits returns the communication complexity CC(Π) in bits.
func (s *Schedule) TotalBits() int { return s.total }

// CountOn returns the total number of transmissions on a directed link
// (0 for a link the schedule never uses and for a non-edge).
func (s *Schedule) CountOn(l channel.Link) int { return len(s.roundsOn(l)) }

// CountBefore returns how many transmissions occur on directed link l in
// rounds strictly before r — i.e. the sequence number the next
// transmission on l would get (0 for a non-edge).
func (s *Schedule) CountBefore(l channel.Link, r int) int {
	rounds := s.roundsOn(l)
	switch {
	case r <= 0:
		return 0
	case r >= len(s.rounds):
		return len(rounds)
	}
	i, _ := slices.BinarySearch(rounds, int32(r))
	return i
}

// Validate checks that the schedule is over g (its index numbers g's
// links), that every transmission uses a link of g, and that no round
// schedules a directed link twice: a network round carries one symbol
// per link.
func (s *Schedule) Validate(g *graph.Graph) error {
	if !sameEdges(s.g, g) {
		return errors.New("protocol: schedule was built over a different graph")
	}
	for r, txs := range s.rounds {
		for i, tx := range txs {
			if !g.HasEdge(tx.From, tx.To) {
				return fmt.Errorf("protocol: round %d transmission %v uses a non-edge", r, tx)
			}
			if i > 0 && txs[i-1] == tx {
				return fmt.Errorf("protocol: round %d schedules link %d→%d twice", r, tx.From, tx.To)
			}
		}
	}
	return nil
}

// sameEdges reports whether a and b number the same edges alike, so a
// link index taken in one names the same link in the other.
func sameEdges(a, b *graph.Graph) bool {
	if a == b {
		return true
	}
	if a.N() != b.N() || a.M() != b.M() {
		return false
	}
	for id := 0; id < a.M(); id++ {
		if a.Edge(id) != b.Edge(id) {
			return false
		}
	}
	return true
}

// View is what one party has observed: its input plus, for each incident
// directed link, the symbols of that link's transmissions so far. A party
// sees its own sent bits on outgoing links and the (possibly corrupted)
// received symbols on incoming links; positions not yet observed read as
// Silence.
type View interface {
	// Self returns the observing party.
	Self() graph.Node
	// Input returns the party's private input.
	Input() []byte
	// Observed returns the symbol recorded for the seq-th transmission on
	// directed link l, or Silence if it is unknown. l must be incident to
	// Self.
	Observed(l channel.Link, seq int) bitstring.Symbol
}

// Protocol is a noiseless multiparty protocol with a fixed speaking order.
//
// SendBit must be a deterministic function of the view restricted to
// observations from rounds strictly before r — that is what lets the
// coding schemes re-simulate a chunk after a rewind.
type Protocol interface {
	// Name identifies the workload in reports.
	Name() string
	// Graph returns the topology Π runs over.
	Graph() *graph.Graph
	// Schedule returns the fixed speaking order.
	Schedule() *Schedule
	// Input returns party p's input.
	Input(p graph.Node) []byte
	// SendBit computes the bit tx.From sends for the seq-th transmission
	// on tx's link, occurring at round r.
	SendBit(v View, r int, tx Transmission, seq int) byte
	// Output computes the party's final output from its view.
	Output(v View) []byte
}
