package protocol

import (
	"bytes"
	"math/rand"
	"runtime"
	"slices"
	"strings"
	"testing"

	"mpic/internal/channel"
	"mpic/internal/graph"
)

func TestScheduleBasics(t *testing.T) {
	s := NewSchedule(graph.Line(2), [][]Transmission{
		{{From: 0, To: 1}, {From: 1, To: 0}},
		{},
		{{From: 0, To: 1}},
	})
	if s.Rounds() != 3 {
		t.Errorf("Rounds() = %d, want 3", s.Rounds())
	}
	if s.TotalBits() != 3 {
		t.Errorf("TotalBits() = %d, want 3", s.TotalBits())
	}
	l := channel.Link{From: 0, To: 1}
	if s.CountOn(l) != 2 {
		t.Errorf("CountOn = %d, want 2", s.CountOn(l))
	}
	if s.CountBefore(l, 0) != 0 || s.CountBefore(l, 1) != 1 || s.CountBefore(l, 3) != 2 {
		t.Error("CountBefore wrong")
	}
}

func TestScheduleValidate(t *testing.T) {
	g := graph.Line(3)
	ok := NewSchedule(g, [][]Transmission{{{From: 0, To: 1}, {From: 1, To: 0}}, {{From: 0, To: 1}}})
	if err := ok.Validate(g); err != nil {
		t.Errorf("valid schedule rejected: %v", err)
	}
	bad := NewSchedule(g, [][]Transmission{{{From: 0, To: 2}}})
	if err := bad.Validate(g); err == nil {
		t.Error("non-edge transmission accepted")
	}
	// One network round carries one symbol per directed link.
	twice := NewSchedule(g, [][]Transmission{{{From: 1, To: 2}}, {{From: 2, To: 1}, {From: 0, To: 1}, {From: 2, To: 1}}})
	if err := twice.Validate(g); err == nil || !strings.Contains(err.Error(), "round 1 schedules link 2→1 twice") {
		t.Errorf("a link scheduled twice in one round: Validate = %v, want an error naming round 1 and link 2→1", err)
	}
	// The index numbers the links of the graph it was built over.
	if err := NewSchedule(graph.Star(3), [][]Transmission{{{From: 0, To: 1}}}).Validate(g); err == nil {
		t.Error("a schedule built over another graph accepted")
	}
	if err := NewSchedule(graph.Line(3), [][]Transmission{{{From: 0, To: 1}}}).Validate(g); err != nil {
		t.Errorf("a schedule built over an equal graph rejected: %v", err)
	}
	// Set-up on an unvalidated schedule naming a non-edge panics rather
	// than dropping the transmission.
	p := NewRandom(g, 1, 1, 1, DefaultInputs(3, 1, 1))
	p.sched = bad
	for name, setUp := range map[string]func(){
		"NewChunking":  func() { NewChunking(p, 10) },
		"RunReference": func() { RunReference(p) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s accepted a non-edge transmission", name)
				}
			}()
			setUp()
		}()
	}
}

func TestMapView(t *testing.T) {
	v := NewMapView(graph.Line(3), 1, []byte{42})
	l := channel.Link{From: 0, To: 1}
	v.Record(l, 1)
	v.Record(l, 0)
	v.Record(l.Reverse(), 1)
	if v.Self() != 1 || v.Input()[0] != 42 {
		t.Error("identity accessors wrong")
	}
	if v.Observed(l, 0) != 1 || v.Observed(l, 1) != 0 || v.Observed(l.Reverse(), 0) != 1 {
		t.Error("recorded observations wrong")
	}
	if v.Observed(l, 2) != 2 || v.Observed(l, -1) != 2 {
		t.Error("out-of-range must read Silence")
	}
	for _, far := range []channel.Link{{From: 1, To: 1}, {From: -1, To: 1}, {From: 1, To: 3}, {From: 0, To: 2}} {
		if v.Observed(far, 0) != 2 {
			t.Errorf("link %v outside the view must read Silence", far)
		}
	}
	defer func() {
		if recover() == nil {
			t.Error("recording a non-incident link did not panic")
		}
	}()
	v.Record(channel.Link{From: 0, To: 2}, 1)
}

func TestRunReferenceDeterministic(t *testing.T) {
	g := graph.Ring(5)
	p1 := NewRandom(g, 40, 0.4, 7, nil)
	p2 := NewRandom(g, 40, 0.4, 7, nil)
	r1 := RunReference(p1)
	r2 := RunReference(p2)
	for i := range r1.Outputs {
		if !bytes.Equal(r1.Outputs[i], r2.Outputs[i]) {
			t.Fatalf("outputs differ for party %d across identical runs", i)
		}
	}
}

func TestRandomScheduleNonEmptyRounds(t *testing.T) {
	g := graph.Line(4)
	p := NewRandom(g, 30, 0.05, 3, nil)
	for r := 0; r < p.Schedule().Rounds(); r++ {
		if len(p.Schedule().At(r)) == 0 {
			t.Fatalf("round %d has no transmissions", r)
		}
	}
	if err := p.Schedule().Validate(g); err != nil {
		t.Fatal(err)
	}
}

func TestRandomInputSensitivity(t *testing.T) {
	g := graph.Line(4)
	in1 := DefaultInputs(4, 4, 1)
	in2 := DefaultInputs(4, 4, 2)
	p1 := NewRandom(g, 40, 0.5, 9, in1)
	p2 := NewRandom(g, 40, 0.5, 9, in2)
	r1 := RunReference(p1)
	r2 := RunReference(p2)
	same := 0
	for i := range r1.Outputs {
		if bytes.Equal(r1.Outputs[i], r2.Outputs[i]) {
			same++
		}
	}
	if same == len(r1.Outputs) {
		t.Error("outputs identical for different inputs: content not input-dependent")
	}
}

func TestTreeSumComputesSum(t *testing.T) {
	g := graph.BalancedTree(7, 2)
	inputs := [][]byte{{5}, {1}, {2}, {3}, {4}, {6}, {7}}
	p := NewTreeSum(g, 2, 8, inputs)
	ref := RunReference(p)
	var want uint64 = 5 + 1 + 2 + 3 + 4 + 6 + 7
	for i, out := range ref.Outputs {
		var got uint64
		for j := 0; j < 8 && j < len(out); j++ {
			got |= uint64(out[j]) << uint(8*j)
		}
		if got != want {
			t.Fatalf("party %d output %d, want %d", i, got, want)
		}
	}
}

func TestTreeSumOnNonTreeGraph(t *testing.T) {
	g := graph.Clique(5)
	p := NewTreeSum(g, 1, 8, [][]byte{{1}, {1}, {1}, {1}, {1}})
	ref := RunReference(p)
	for i, out := range ref.Outputs {
		if out[0] != 5 {
			t.Fatalf("party %d sum = %d, want 5", i, out[0])
		}
	}
}

func TestTokenRingAgreesAcrossParties(t *testing.T) {
	p, err := NewTokenRing(5, 3, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Schedule().Validate(p.Graph()); err != nil {
		t.Fatal(err)
	}
	ref := RunReference(p)
	if len(ref.Outputs) != 5 {
		t.Fatal("wrong party count")
	}
	// Every round exactly one transmission.
	if p.Schedule().TotalBits() != 15 {
		t.Errorf("TotalBits = %d, want 15", p.Schedule().TotalBits())
	}
}

func TestTokenRingRejectsTiny(t *testing.T) {
	if _, err := NewTokenRing(2, 1, nil); err == nil {
		t.Error("n=2 accepted")
	}
}

func TestPipelinedLine(t *testing.T) {
	p, err := NewPipelinedLine(5, 3, 6, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Schedule().Validate(p.Graph()); err != nil {
		t.Fatal(err)
	}
	// Per block: n-1 relays + chatter bits.
	want := 3 * ((5 - 1) + 6)
	if p.Schedule().TotalBits() != want {
		t.Errorf("TotalBits = %d, want %d", p.Schedule().TotalBits(), want)
	}
	RunReference(p) // must not panic
	if _, err := NewPipelinedLine(2, 1, 1, nil); err == nil {
		t.Error("n=2 accepted")
	}
}

func TestChunkingCoversSchedule(t *testing.T) {
	g := graph.Line(4)
	p := NewRandom(g, 50, 0.6, 5, nil)
	ch := NewChunking(p, 15)
	total := 0
	for i, spec := range ch.Specs {
		if spec.Index != i+1 {
			t.Fatalf("chunk %d has Index %d", i, spec.Index)
		}
		if spec.Bits > 15 && spec.Rounds() > 1 {
			t.Fatalf("chunk %d overflows budget with %d bits", i, spec.Bits)
		}
		total += spec.Bits
	}
	if total != p.Schedule().TotalBits() {
		t.Fatalf("chunks cover %d bits, schedule has %d", total, p.Schedule().TotalBits())
	}
	// Chunks tile the rounds contiguously.
	if ch.Specs[0].StartRound != 0 {
		t.Error("first chunk does not start at round 0")
	}
	for i := 1; i < len(ch.Specs); i++ {
		if ch.Specs[i].StartRound != ch.Specs[i-1].EndRound {
			t.Fatal("chunks not contiguous")
		}
	}
	if ch.Specs[len(ch.Specs)-1].EndRound != p.Schedule().Rounds() {
		t.Error("last chunk does not end at the final round")
	}
}

func TestChunkingLocate(t *testing.T) {
	g := graph.Line(3)
	p := NewRandom(g, 30, 0.7, 2, nil)
	ch := NewChunking(p, 10)
	// Walk the schedule and verify Locate round-trips through Slots.
	seq := map[channel.Link]int{}
	for r := 0; r < p.Schedule().Rounds(); r++ {
		for _, tx := range p.Schedule().At(r) {
			l := tx.Link()
			loc, ok := ch.Locate(g.LinkIndex(tx.From, tx.To), seq[l])
			if !ok {
				t.Fatalf("Locate failed for %v seq %d", l, seq[l])
			}
			spec := ch.Spec(loc.Chunk)
			_, slots := ch.Slots(loc.Chunk, g.EdgeIndex(tx.From, tx.To))
			slot := slots[loc.Pos]
			if slot.Tx(g) != tx || int(slot.Seq) != seq[l] {
				t.Fatalf("Locate mismatch for %v seq %d: got %+v", l, seq[l], slot)
			}
			if spec.StartRound+int(slot.RelRound) != r {
				t.Fatalf("round mismatch: %d vs %d", spec.StartRound+int(slot.RelRound), r)
			}
			seq[l]++
		}
	}
	for _, c := range [][2]int{{0, 9999}, {0, -1}, {-1, 0}, {2 * g.M(), 0}} {
		if _, ok := ch.Locate(c[0], c[1]); ok {
			t.Errorf("Locate accepted link %d seq %d", c[0], c[1])
		}
	}
}

func TestChunkingDummySpec(t *testing.T) {
	g := graph.Line(3)
	p := NewRandom(g, 20, 0.5, 2, nil)
	ch := NewChunking(p, 10)
	n := ch.NumChunks()
	d := ch.Spec(n + 5)
	if !ch.IsDummy(n + 5) {
		t.Error("IsDummy false for padding index")
	}
	if ch.IsDummy(1) {
		t.Error("IsDummy true for real chunk")
	}
	if d.Index != n+5 {
		t.Errorf("dummy Index = %d, want %d", d.Index, n+5)
	}
	if d.Bits != 2*g.M() {
		t.Errorf("dummy Bits = %d, want %d", d.Bits, 2*g.M())
	}
	for _, e := range g.Edges() {
		start, slots := ch.Slots(n+5, g.EdgeIndex(e.U, e.V))
		if start != 0 || len(slots) != 2 || slots[0].Tx(g).From != e.U || slots[1].Tx(g).From != e.V {
			t.Fatal("dummy chunk must have one slot per direction per link")
		}
	}
}

// TestChunkingSlots checks Slots against the schedule, for every real
// chunk, the padding indices past them and every edge: each read starts
// at its chunk's first round, holds only the edge's slots inside the
// chunk, and the reads of one edge, chunk by chunk, list exactly its
// transmissions in schedule order. Slots allocates nothing.
func TestChunkingSlots(t *testing.T) {
	g := graph.Ring(5)
	p := NewRandom(g, 30, 0.4, 6, nil)
	ch := NewChunking(p, 8)
	n := ch.NumChunks()
	for id := 0; id < g.M(); id++ {
		var want []Slot
		seq := [2]int32{}
		for r := 0; r < p.Schedule().Rounds(); r++ {
			for _, tx := range p.Schedule().At(r) {
				if li := g.LinkIndex(tx.From, tx.To); li/2 == id {
					want = append(want, Slot{RelRound: int32(r), Seq: seq[li%2], Link: int32(li)})
					seq[li%2]++
				}
			}
		}
		var got []Slot
		for i := 1; i <= n+3; i++ {
			spec := ch.Spec(i)
			start, slots := ch.Slots(i, id)
			if start != spec.StartRound {
				t.Fatalf("chunk %d edge %d: Slots starts at round %d, Spec at %d", i, id, start, spec.StartRound)
			}
			for _, sl := range slots {
				if int(sl.RelRound) >= spec.Rounds() || int(sl.Link)/2 != id {
					t.Fatalf("chunk %d edge %d: slot %+v outside the chunk or the edge", i, id, sl)
				}
				if !ch.IsDummy(i) {
					sl.RelRound += int32(start)
					got = append(got, sl)
				}
			}
		}
		if !slices.Equal(got, want) || len(got) != ch.EdgeSlots(id) {
			t.Fatalf("edge %d: slots %v, want %v", id, got, want)
		}
	}
	for _, i := range []int{1, n, n + 7} {
		if allocs := testing.AllocsPerRun(10, func() { ch.Slots(i, 2) }); allocs != 0 {
			t.Fatalf("Slots(%d, 2) allocates %.1f times, want 0", i, allocs)
		}
	}
}

func TestPadInputs(t *testing.T) {
	in := padInputs([][]byte{{1}, nil}, 3)
	if len(in) != 3 {
		t.Fatal("wrong length")
	}
	if in[0][0] != 1 {
		t.Error("provided input overwritten")
	}
	if len(in[1]) == 0 || len(in[2]) == 0 {
		t.Error("missing inputs not derived")
	}
}

func TestDefaultInputsDeterministic(t *testing.T) {
	a := DefaultInputs(3, 4, 9)
	b := DefaultInputs(3, 4, 9)
	for i := range a {
		if !bytes.Equal(a[i], b[i]) {
			t.Fatal("DefaultInputs not deterministic")
		}
	}
}

// TestScheduleCounts checks CountOn and CountBefore against a scan of a
// random schedule, on every directed link of the graph and on links the
// schedule never uses or that do not exist, which count 0.
func TestScheduleCounts(t *testing.T) {
	g := graph.RandomConnected(8, 5, rand.New(rand.NewSource(2)))
	s := NewRandom(g, 60, 0.2, 7, nil).Schedule()
	var links []channel.Link
	for _, e := range g.Edges() {
		links = append(links, channel.Link{From: e.U, To: e.V}, channel.Link{From: e.V, To: e.U})
	}
	links = append(links,
		channel.Link{From: 0, To: 0}, channel.Link{From: -1, To: 2},
		channel.Link{From: 3, To: 99}, channel.Link{From: 99, To: 3})
	for _, l := range links {
		count := 0
		for r := 0; r <= s.Rounds(); r++ {
			if got := s.CountBefore(l, r); got != count {
				t.Fatalf("CountBefore(%v, %d) = %d, want %d", l, r, got, count)
			}
			if r < s.Rounds() {
				for _, tx := range s.At(r) {
					if tx.Link() == l {
						count++
					}
				}
			}
		}
		if got := s.CountOn(l); got != count {
			t.Fatalf("CountOn(%v) = %d, want %d", l, got, count)
		}
	}
	empty := NewSchedule(g, nil)
	if empty.CountOn(links[0]) != 0 || empty.CountBefore(links[0], 5) != 0 || empty.TotalBits() != 0 {
		t.Fatal("empty schedule counts transmissions")
	}

	// A hand-built schedule with a link repeated within a round, empty
	// rounds, and nodes no graph has (-1, 1<<40): the index must count the
	// links of its graph exactly, count the non-edges 0, and allocate
	// nothing by a node's value.
	const far = graph.Node(1 << 40)
	hand := [][]Transmission{
		{{From: 2, To: 1}, {From: 0, To: 1}, {From: 2, To: 1}},
		{},
		{{From: far, To: -1}, {From: -1, To: far}, {From: far, To: -1}, {From: 0, To: 1}},
		{},
		{},
		{{From: 1, To: 0}, {From: -1, To: 0}, {From: 2, To: 1}, {From: 2, To: 1}, {From: 2, To: 1}},
	}
	want := make([][]Transmission, len(hand))
	for r, txs := range hand {
		want[r] = append([]Transmission(nil), txs...)
	}
	line := graph.Line(3)
	s = NewSchedule(line, hand)
	probe := []channel.Link{{From: 0, To: 0}, {From: 1, To: 2}, {From: far, To: far}, {From: -1, To: -1}, {From: 0, To: far}}
	for _, txs := range want {
		for _, tx := range txs {
			probe = append(probe, tx.Link(), tx.Link().Reverse())
		}
	}
	for _, l := range probe {
		count := 0
		for r := -1; r <= s.Rounds()+1; r++ {
			if got := s.CountBefore(l, r); got != count {
				t.Fatalf("hand schedule: CountBefore(%v, %d) = %d, want %d", l, r, got, count)
			}
			if r >= 0 && r < len(want) {
				for _, tx := range want[r] {
					if tx.Link() == l && line.HasEdge(l.From, l.To) {
						count++
					}
				}
			}
		}
		if got := s.CountOn(l); got != count {
			t.Fatalf("hand schedule: CountOn(%v) = %d, want %d", l, got, count)
		}
	}
	if s.TotalBits() != 12 || s.Rounds() != 6 || len(s.At(1)) != 0 {
		t.Fatalf("hand schedule: %d bits over %d rounds", s.TotalBits(), s.Rounds())
	}

	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	s = NewSchedule(g, [][]Transmission{{{From: far, To: 0}}})
	runtime.ReadMemStats(&after)
	if alloc := after.TotalAlloc - before.TotalAlloc; alloc >= 64<<10 {
		t.Fatalf("a 1-transmission schedule naming node %d allocated %d bytes", far, alloc)
	}
	if s.CountOn(channel.Link{From: far, To: 0}) != 0 || s.TotalBits() != 1 || s.Validate(g) == nil {
		t.Fatalf("schedule naming node %d: counted %d, validated", far, s.CountOn(channel.Link{From: far, To: 0}))
	}
}
