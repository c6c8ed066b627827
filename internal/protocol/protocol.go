// Package protocol models the noiseless protocols Π the coding schemes
// simulate: synchronous protocols over a network G with a fixed,
// input-independent order of speaking (Section 2.1). Only message
// *content* may depend on inputs and observed history.
package protocol

import (
	"cmp"
	"fmt"
	"slices"
	"sort"

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
	rounds [][]Transmission
	// links lists every directed link the schedule uses, ascending by
	// (From, To); txRounds[i] holds links[i]'s transmission rounds,
	// ascending.
	links    []channel.Link
	txRounds [][]int
	total    int
}

// linkCmp orders directed links by (From, To).
func linkCmp(a, b channel.Link) int {
	if a.From != b.From {
		return cmp.Compare(a.From, b.From)
	}
	return cmp.Compare(a.To, b.To)
}

// NewSchedule builds a schedule from per-round transmissions. Within each
// round, transmissions are normalized to a deterministic order.
func NewSchedule(rounds [][]Transmission) *Schedule {
	s := &Schedule{rounds: rounds}
	for _, txs := range rounds {
		slices.SortFunc(txs, func(a, b Transmission) int { return linkCmp(a.Link(), b.Link()) })
		s.total += len(txs)
	}
	used := make([]channel.Link, 0, s.total)
	for _, txs := range rounds {
		for _, tx := range txs {
			used = append(used, tx.Link())
		}
	}
	slices.SortFunc(used, linkCmp)
	// Each distinct link's run in used is its transmission count, which
	// sizes its slice of one shared rounds slab.
	slab := make([]int, s.total)
	for i := 0; i < len(used); {
		j := i + 1
		for j < len(used) && used[j] == used[i] {
			j++
		}
		s.links = append(s.links, used[i])
		s.txRounds = append(s.txRounds, slab[i:i:j])
		i = j
	}
	for r, txs := range rounds {
		for _, tx := range txs {
			i := s.linkPos(tx.Link())
			s.txRounds[i] = append(s.txRounds[i], r)
		}
	}
	return s
}

// linkPos returns l's position in s.links, or -1 if the schedule never
// uses l.
func (s *Schedule) linkPos(l channel.Link) int {
	if i, ok := slices.BinarySearchFunc(s.links, l, linkCmp); ok {
		return i
	}
	return -1
}

// roundsOn returns the ascending rounds of l's transmissions (nil for a
// link the schedule never uses). The slice is owned by the schedule.
func (s *Schedule) roundsOn(l channel.Link) []int {
	if i := s.linkPos(l); i >= 0 {
		return s.txRounds[i]
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
// (0 for a link the schedule never uses).
func (s *Schedule) CountOn(l channel.Link) int { return len(s.roundsOn(l)) }

// CountBefore returns how many transmissions occur on directed link l in
// rounds strictly before r — i.e. the sequence number the next
// transmission on l would get.
func (s *Schedule) CountBefore(l channel.Link, r int) int {
	return sort.SearchInts(s.roundsOn(l), r)
}

// Validate checks every transmission uses an existing link of g.
func (s *Schedule) Validate(g *graph.Graph) error {
	for r, txs := range s.rounds {
		for _, tx := range txs {
			if !g.HasEdge(tx.From, tx.To) {
				return fmt.Errorf("protocol: round %d transmission %v uses a non-edge", r, tx)
			}
		}
	}
	return nil
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
