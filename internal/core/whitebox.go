package core

import (
	"mpic/internal/adversary"
	"mpic/internal/bitstring"
	"mpic/internal/channel"
	"mpic/internal/hashing"
	"mpic/internal/trace"
)

// whiteBoxAttacker is the seed-aware collision attack of Section 6.1: a
// non-oblivious adversary that knows the hash seeds ahead of time (it saw
// the CRS, or watched the randomness exchange) and corrupts a simulated
// chunk only when it can verify that the damaged transcripts will still
// hash equal at the next consistency check — so the corruption survives
// undetected and the parties keep building on a divergent history.
//
// The paper's defense is exactly the hash length: with τ-bit outputs a
// candidate corruption collides with probability 2^-τ, so constant τ
// (Algorithm 1/A) gives the attacker steady ammunition while
// τ = Θ(log m) (Algorithm B) starves it. Experiment E-F12 measures this.
//
// Implementation: the attacker targets the final slot of a chunk on a
// link (at that moment both endpoints' records of the chunk are fully
// determined), tries both possible corrupted symbols, and fires only if
// one of them makes the two endpoints' full-transcript hashes collide
// under the next iteration's seed block.
type whiteBoxAttacker struct {
	e       *env
	parties []*party
	budget  *adversary.Budget
	// Tried counts candidate slots inspected; Landed counts corruptions
	// fired with a guaranteed collision.
	Tried, Landed int
}

var _ adversary.Adversary = (*whiteBoxAttacker)(nil)
var _ adversary.ContextAware = (*whiteBoxAttacker)(nil)

func newWhiteBoxAttacker(e *env, parties []*party, rate float64) *whiteBoxAttacker {
	return &whiteBoxAttacker{
		e:       e,
		parties: parties,
		budget:  &adversary.Budget{Rate: rate, Floor: 1},
	}
}

// SetContext implements adversary.ContextAware.
func (w *whiteBoxAttacker) SetContext(ctx adversary.Context) { w.budget.SetContext(ctx) }

// Corrupt implements adversary.Adversary.
func (w *whiteBoxAttacker) Corrupt(round int, link channel.Link, sent bitstring.Symbol) bitstring.Symbol {
	if sent == bitstring.Silence {
		return sent
	}
	rel := round - w.e.phStart
	if w.e.phase != trace.PhaseSimulation || rel == 0 {
		return sent
	}
	u := w.parties[link.From]
	ls := u.link(link.To)
	if ls == nil || ls.simChunk == 0 || len(ls.slots) == 0 {
		return sent
	}
	// Only the chunk's final slot leaves both endpoint records fully
	// determined at corruption time.
	last := ls.slots[len(ls.slots)-1]
	if int(last.RelRound) != rel-1 || last.Link != ls.out {
		return sent
	}
	v := w.parties[link.To]
	lsv := v.link(link.From)
	if lsv == nil || lsv.simChunk != ls.simChunk {
		return sent
	}
	// The next check compares full transcripts only when both endpoints
	// enter it fresh (k = 0 → 1).
	if ls.mp.K != 0 || lsv.mp.K != 0 {
		return sent
	}
	if w.budget.Available() < 1 {
		return sent
	}
	w.Tried++
	lastIdx := len(ls.slots) - 1
	hu := w.futureHash(ls, ls.pending, lastIdx, sent, w.e.iter+1)
	for e := uint8(1); e <= 2; e++ {
		recv := sent.Add(e)
		hv := w.futureHash(lsv, lsv.pending, lastIdx, recv, w.e.iter+1)
		if hu == hv {
			w.budget.TrySpend()
			w.Landed++
			return recv
		}
	}
	return sent
}

// futureHash predicts the endpoint's full-transcript hash at the next
// meeting-points check, with the chunk's final slot holding sym, on the
// seed block the parties will use there (env.prefixOffset: under
// HashEpoch a found collision pays only until the next refresh, and for
// the whole run when EpochRefresh is at least the budget).
func (w *whiteBoxAttacker) futureHash(ls *linkState, pending []bitstring.Symbol, lastIdx int, sym bitstring.Symbol, iter int) uint64 {
	bits := ls.T.Bits().Clone()
	bits.AppendUint(uint64(ls.simChunk), chunkIndexBits)
	for i, s := range pending {
		if i == lastIdx {
			s = sym
		}
		bits.AppendSymbol(s)
	}
	return w.e.hash.Hash(bits, ls.src, w.e.prefixOffset(iter, hashing.SlotMP1))
}
