package hashing

// Slot identifies which of the per-iteration hash evaluations a seed block
// feeds. The meeting-points step of Algorithm 7 exchanges three hashes per
// iteration: one of the counter k and two of transcript prefixes.
type Slot int

const (
	// SlotK seeds the hash of the meeting-point counter k.
	SlotK Slot = iota
	// SlotMP1 seeds the hash of the prefix at meeting point 1.
	SlotMP1
	// SlotMP2 seeds the hash of the prefix at meeting point 2.
	SlotMP2
	// numSlots is the number of seed blocks consumed per link-iteration.
	numSlots
)

// SeedLayout computes non-overlapping seed-word offsets for every
// (iteration, slot) pair on one link. Both endpoints of a link construct
// the same layout over the same source, so their hash evaluations agree —
// the shared-randomness invariant the consistency checks need.
type SeedLayout struct {
	hash *InnerProductHash
}

// NewSeedLayout returns the layout for one link's seed stream.
func NewSeedLayout(h *InnerProductHash) *SeedLayout {
	return &SeedLayout{hash: h}
}

// Offset returns the first seed word of the block for iteration it and
// slot s.
func (l *SeedLayout) Offset(it int, s Slot) uint64 {
	block := l.hash.SeedWords()
	return (uint64(it)*uint64(numSlots) + uint64(s)) * block
}

// stableBase is the first seed word of the rewind-stable region: the
// per-slot seed blocks that do not change between iterations, used by the
// incremental prefix-hash checkpoints. Two constraints pull in opposite
// directions. The per-iteration region of Offset grows upward from word 0
// and must stay below it: realistic budgets top out around 10^8–10^9
// seed words (iterations × 3 slots × SeedWords), an order of magnitude
// and more of headroom — and RegionsDisjoint makes an overrun a loud
// construction-time error, not a silent overlap. Pulling downward, the
// AGHP source's bias grows with the highest stream position consumed
// (δ ≤ N/2^64 for N stream bits, Lemma 2.5): at 2^34 words the stable
// blocks sit near bit 2^40, keeping δ ≤ 2^-24 — below any per-check
// collision probability 2^-τ the schemes configure — where a lavish
// base like 2^50 would have floored δ at 2^-8 regardless of τ.
const stableBase uint64 = 1 << 34

// RegionsDisjoint reports whether the per-iteration region for the given
// iteration budget stays clear of the stable region — construction-time
// validation for configurations beyond the documented headroom.
func (l *SeedLayout) RegionsDisjoint(iters int) bool {
	if iters < 0 {
		return true
	}
	return l.Offset(iters, SlotK) <= stableBase
}

// EpochOffset returns the first seed word of the refresh block for slot s
// in epoch e. Epoch-refresh hashing (see Checkpointed.SetBlock and the
// package doc's union-bound discussion) re-derives the prefix-hash seed
// block every R iterations; each epoch gets its own numSlots-wide block
// laid out contiguously above stableBase, so epoch 0 is the rewind-stable
// block itself — a run whose budget fits inside one epoch hashes
// against one fixed block for the whole run. As with Offset, both
// endpoints of a link compute the same offsets over the same stream, so
// their per-epoch hash evaluations agree. Within an epoch the block is
// fixed: hashing a transcript prefix against it yields the same value in
// every iteration, which is what lets checkpointed partial accumulators
// survive across iterations and rewinds (see Checkpointed).
func (l *SeedLayout) EpochOffset(s Slot, epoch int) uint64 {
	if epoch < 0 {
		epoch = 0
	}
	block := l.hash.SeedWords()
	return stableBase + (uint64(epoch)*uint64(numSlots)+uint64(s))*block
}

// EpochsFit reports whether epochs refresh epochs keep the epoch region
// within its bias budget. The region may extend to 4·stableBase = 2^36
// words (stream bit ~2^42): the AGHP source's bias there is
// δ ≤ 2^42/2^64 = 2^-22, still below every per-check collision
// probability 2^-τ the schemes configure, by the same argument that
// sized stableBase itself. Like RegionsDisjoint, this turns an
// over-budget configuration into a loud construction-time error instead
// of a silent bias regression.
func (l *SeedLayout) EpochsFit(epochs int) bool {
	if epochs < 1 {
		return true
	}
	return uint64(epochs)*uint64(numSlots)*l.hash.SeedWords() <= 3*stableBase
}
