package protocol

import (
	"bytes"
	"math/rand"
	"testing"

	"mpic/internal/channel"
	"mpic/internal/graph"
)

func TestScheduleBasics(t *testing.T) {
	s := NewSchedule([][]Transmission{
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
	ok := NewSchedule([][]Transmission{{{From: 0, To: 1}}})
	if err := ok.Validate(g); err != nil {
		t.Errorf("valid schedule rejected: %v", err)
	}
	bad := NewSchedule([][]Transmission{{{From: 0, To: 2}}})
	if err := bad.Validate(g); err == nil {
		t.Error("non-edge transmission accepted")
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
	// Walk the schedule and verify Locate round-trips through LinkSlots.
	seq := map[channel.Link]int{}
	for r := 0; r < p.Schedule().Rounds(); r++ {
		for _, tx := range p.Schedule().At(r) {
			l := tx.Link()
			loc, ok := ch.Locate(l, seq[l])
			if !ok {
				t.Fatalf("Locate failed for %v seq %d", l, seq[l])
			}
			spec := ch.Spec(loc.Chunk)
			slot := spec.LinkSlots[g.EdgeIndex(tx.From, tx.To)][loc.Pos]
			if slot.Tx != tx || slot.Seq != seq[l] {
				t.Fatalf("Locate mismatch for %v seq %d: got %+v", l, seq[l], slot)
			}
			if spec.StartRound+slot.RelRound != r {
				t.Fatalf("round mismatch: %d vs %d", spec.StartRound+slot.RelRound, r)
			}
			seq[l]++
		}
	}
	if _, ok := ch.Locate(channel.Link{From: 0, To: 1}, 9999); ok {
		t.Error("Locate accepted out-of-range seq")
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
		slots := d.LinkSlots[g.EdgeIndex(e.U, e.V)]
		if len(slots) != 2 || slots[0].Tx.From != e.U || slots[1].Tx.From != e.V {
			t.Fatal("dummy chunk must have one slot per direction per link")
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
	empty := NewSchedule(nil)
	if empty.CountOn(links[0]) != 0 || empty.CountBefore(links[0], 5) != 0 || empty.TotalBits() != 0 {
		t.Fatal("empty schedule counts transmissions")
	}
}
