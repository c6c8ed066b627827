package network

import (
	"mpic/internal/bitstring"
	"mpic/internal/channel"
	"mpic/internal/trace"
)

// event is one late symbol in flight: pushed when its flight time
// misses the send round's deadline, popped in the first round whose
// deadline its arrival meets. On-time symbols never become events — they
// go straight to their link's slot. Events are ordered by (time, seq);
// seq is assigned monotonically at push, so ties in arrival time among
// late symbols resolve in push order — which is itself deterministic
// (rounds ascend, links in the engine's sorted order within a round).
// The pop order is therefore a pure function of the run's seeds,
// independent of GOMAXPROCS or worker count.
type event struct {
	time float64          // virtual arrival time, in round-periods
	seq  uint64           // push order, tie-breaker
	li   int              // index into Engine.links
	sym  bitstring.Symbol // the wire symbol (post-adversary)
}

func eventLess(a, b event) bool {
	if a.time != b.time {
		return a.time < b.time
	}
	return a.seq < b.seq
}

// eventHeap is a binary min-heap over (time, seq) holding the late
// symbols still in flight.
type eventHeap []event

func (h *eventHeap) push(ev event) {
	*h = append(*h, ev)
	s := *h
	for i := len(s) - 1; i > 0; {
		p := (i - 1) / 2
		if !eventLess(s[i], s[p]) {
			break
		}
		s[i], s[p] = s[p], s[i]
		i = p
	}
}

func (h *eventHeap) pop() event {
	s := *h
	top := s[0]
	n := len(s) - 1
	s[0] = s[n]
	s = s[:n]
	*h = s
	for i := 0; ; {
		c := 2*i + 1
		if c >= n {
			break
		}
		if c+1 < n && eventLess(s[c+1], s[c]) {
			c++
		}
		if !eventLess(s[c], s[i]) {
			break
		}
		s[i], s[c] = s[c], s[i]
		i = c
	}
	return top
}

// timedState is the virtual-time machinery of a timed engine: the delay
// model, the (optional) fault schedule, the heap of late symbols in
// flight, and the per-round delivery slots of the deadline synchronizer.
type timedState struct {
	model  DelayModel
	faults *WiredFaults
	heap   eventHeap
	seq    uint64
	slots  []bitstring.Symbol // per link, rebuilt every round
	stats  *trace.NetStats
}

// SetTiming puts the engine under a virtual-time delay model and an
// optional network-fault schedule. A nil model means Unit (lockstep).
// Lockstep models with no fault schedule keep the classic synchronous
// path — byte-identical to the pre-virtual-time engine, Metrics.Net nil —
// because under unit delay every symbol arrives exactly at its deadline
// and the DES reduces to the lockstep loop. Call before the first round.
func (e *Engine) SetTiming(model DelayModel, wf *WiredFaults) {
	if model == nil {
		model = Unit{}
	}
	if model.Lockstep() && wf == nil && !e.forceTimed {
		e.timing = nil
		return
	}
	stats := &trace.NetStats{Links: make([]trace.LinkDelay, len(e.links))}
	for i, l := range e.links {
		stats.Links[i] = trace.LinkDelay{From: int(l.From), To: int(l.To)}
	}
	e.timing = &timedState{
		model:  model,
		faults: wf,
		slots:  make([]bitstring.Symbol, len(e.links)),
		stats:  stats,
	}
	e.metrics.Net = stats
}

// stepTimed is one round of the virtual-time engine. The round abstraction
// is preserved by a deadline synchronizer: round r spans virtual time
// [r, r+1), its deadline is r+1, and parties step in lockstep on round
// boundaries regardless of what the network does in between.
//
// Send and adversary accounting are identical to the synchronous path:
// every party's Send is collected first, then the adversary is consulted
// on every directed link in deterministic order. What changes is
// delivery: each wire symbol is assigned a flight delay. A symbol whose
// arrival meets the deadline fills its link's slot at once; a late one
// goes on the event heap, and the heap delivers earlier rounds' late
// symbols whose arrival meets this round's deadline.
//
// Timing faults map onto the paper's insdel noise model:
//
//   - a symbol erased in transit (outage, crashed endpoint) is a deletion;
//   - a symbol whose arrival misses its deadline is recorded as a deletion
//     at the deadline — its receiver observes silence where a symbol was
//     due — and stays in flight;
//   - when a late symbol finally lands, it fills its link's slot in the
//     arrival round if that slot is silent, recorded as an out-of-band
//     insertion (the receiver observes a symbol it cannot attribute to the
//     current round); if the slot is occupied or the receiver is crashed,
//     the symbol is dropped — the deadline deletion is its only trace.
//
// Note one behavioral difference from the synchronous path: here all of a
// round's adversary corruptions happen before any delivery, whereas the
// lockstep loop interleaves Corrupt and Deliver per link. Protocol
// parties cannot observe the difference (they see only Deliver), but a
// white-box adversary that reads party state can — which is one more
// reason lockstep-no-fault runs stay on the classic path.
func (e *Engine) stepTimed(round int) {
	t := e.timing
	phase := trace.Phase(-1)
	if e.phaseFn != nil {
		phase = e.phaseFn(round)
	}
	e.collectSends(round)

	deadline := float64(round + 1)
	for i := range t.slots {
		t.slots[i] = bitstring.Silence
	}
	for i, l := range e.links {
		sent := e.sendBuf[i]
		if sent != bitstring.Silence {
			e.metrics.AddTransmission(phase)
		}
		recv := e.adv.Corrupt(round, l, sent)
		if k := channel.Classify(sent, recv); k != channel.KindNone {
			e.metrics.AddCorruption(k)
		}
		if recv == bitstring.Silence {
			continue // nothing on the wire
		}
		if t.faults != nil && t.faults.Erased(l, round) {
			// Lost in transit: the receiver sees silence — a deletion.
			e.metrics.AddCorruption(channel.KindDeletion)
			t.stats.Erasures++
			continue
		}
		d := t.model.Delay(round, l)
		if t.faults != nil {
			d += t.faults.ExtraDelay(l, round)
		}
		// !(d > 0) rather than d <= 0: a NaN delay fails every comparison,
		// so it would never meet a deadline nor leave the heap.
		if !(d > 0) {
			d = 1e-3
		}
		// A delay past MaxDelay (+Inf included) lands after any run ends,
		// so capping it loses the same symbol while keeping the delay
		// histogram's sums finite (and so JSON-encodable).
		if d > MaxDelay {
			d = MaxDelay
		}
		t.stats.Links[i].Hist.Observe(d)
		arrival := float64(round) + d
		if arrival <= deadline {
			// On time: the symbol owns its link's slot this round.
			t.slots[i] = recv
			continue
		}
		// Misses its deadline: deletion now, insertion when it lands.
		e.metrics.AddCorruption(channel.KindDeletion)
		t.stats.LateSymbols++
		t.seq++
		t.heap.push(event{time: arrival, seq: t.seq, li: i, sym: recv})
	}

	// Deadline synchronizer: every event due by the deadline is a late
	// symbol from an earlier round. In pop order, each fills its slot if
	// the slot is still silent after the on-time symbols claimed theirs.
	for len(t.heap) > 0 && t.heap[0].time <= deadline {
		ev := t.heap.pop()
		l := e.links[ev.li]
		if t.slots[ev.li] != bitstring.Silence ||
			(t.faults != nil && t.faults.Crashed(l.To, round)) {
			t.stats.LateDropped++
			continue
		}
		t.slots[ev.li] = ev.sym
		e.metrics.AddCorruption(channel.KindInsertion)
		t.stats.LateDelivered++
	}
	// Every arrival delivered this round is at most the deadline, so the
	// deadline alone advances the makespan.
	if deadline > t.stats.Makespan {
		t.stats.Makespan = deadline
	}

	for i, l := range e.links {
		e.parties[l.To].Deliver(round, l.From, e.recvPort[i], t.slots[i])
	}
	e.endRound(round)
}
