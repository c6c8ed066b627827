package mpic

import (
	"crypto/sha256"
	"fmt"
	"os"
	"path/filepath"
	"sync"

	"mpic/internal/trace"
)

// StoredCell is one persisted cell of a durable grid session: the cell's
// identity, its completed aggregate, and — for Grid.KeepResults sessions
// — the serializable core of every trial's Result, so trajectory
// consumers (rewind-wave, potential, rounds tables) resume through the
// store instead of re-running.
type StoredCell struct {
	// Index is the cell's position in Grid.Cells when it completed. On
	// resume it disambiguates duplicate keys: cells whose (n, scheme,
	// rate, delay) key appears more than once in a grid reclaim their own
	// entry instead of the first key match.
	Index int
	// Key is the cell's (n, scheme, rate, delay) identity — what resume
	// matches on, so a checkpoint merges correctly whatever order the
	// engine completed the cells in.
	Key GridKey
	// Cell is the completed aggregate.
	Cell SweepCell
	// Results holds the per-trial results of a KeepResults session, in
	// trial order; nil for plain (aggregate-only) sessions.
	Results []*StoredResult `json:",omitempty"`
}

// StoredResult is the serializable core of one trial's Result — every
// field a resumed trajectory consumer reads (metrics with the full
// virtual-time accounting, potential snapshots, white-box stats), minus
// the two a checkpoint cannot reasonably carry: Outputs (the parties'
// raw output bytes, redundant with Success/WrongParties) and Arena (a
// live pool's counters, meaningless across processes). Restored Results
// leave those two nil.
type StoredResult struct {
	Success         bool
	CCProtocol      int
	Blowup          float64
	NumChunks       int
	Iterations      int
	GStar           int
	BrokenSeedLinks int
	WrongParties    int
	Metrics         trace.Metrics
	Potential       []Snapshot     `json:",omitempty"`
	WhiteBox        *WhiteBoxStats `json:",omitempty"`
}

// storeResult converts a trial Result into its persisted form.
func storeResult(r *Result) *StoredResult {
	if r == nil {
		return nil
	}
	s := &StoredResult{
		Success:         r.Success,
		CCProtocol:      r.CCProtocol,
		Blowup:          r.Blowup,
		NumChunks:       r.NumChunks,
		Iterations:      r.Iterations,
		GStar:           r.GStar,
		BrokenSeedLinks: r.BrokenSeedLinks,
		WrongParties:    r.WrongParties,
		Potential:       r.Potential,
		WhiteBox:        r.WhiteBox,
	}
	if r.Metrics != nil {
		s.Metrics = *r.Metrics
	}
	return s
}

// result converts the persisted form back into a Result (Outputs and
// Arena stay nil; see StoredResult).
func (s *StoredResult) result() *Result {
	if s == nil {
		return nil
	}
	m := s.Metrics
	return &Result{
		Success:         s.Success,
		Metrics:         &m,
		CCProtocol:      s.CCProtocol,
		Blowup:          s.Blowup,
		NumChunks:       s.NumChunks,
		Iterations:      s.Iterations,
		GStar:           s.GStar,
		BrokenSeedLinks: s.BrokenSeedLinks,
		WrongParties:    s.WrongParties,
		Potential:       s.Potential,
		WhiteBox:        s.WhiteBox,
	}
}

// storeResults and restoreResults lift the conversions over a cell's
// trial slice.
func storeResults(rs []*Result) []*StoredResult {
	if len(rs) == 0 {
		return nil
	}
	out := make([]*StoredResult, len(rs))
	for i, r := range rs {
		out[i] = storeResult(r)
	}
	return out
}

func restoreResults(ss []*StoredResult) []*Result {
	if len(ss) == 0 {
		return nil
	}
	out := make([]*Result, len(ss))
	for i, s := range ss {
		out[i] = s.result()
	}
	return out
}

// GridStore persists the completed cells of a grid session — the
// checkpoint interface behind Grid.Store. The engine calls Load once
// before anything runs and Save serially (never concurrently) after each
// completed cell, so implementations need no locking of their own.
//
// The spec string fingerprints the grid: a store must refuse to Load
// state written under a different spec (merging another grid's cells
// would silently mislabel results), and should persist the spec so that
// refusal is possible. Grid.Fingerprint is the engine's default spec;
// callers with richer identity (CLI flags, experiment names) set
// Grid.Spec instead.
type GridStore interface {
	// Load returns the cells previously persisted under spec, in the
	// order they were saved. An empty or absent store returns (nil, nil);
	// a store holding a different spec or an unreadable state returns an
	// error.
	Load(spec string) ([]StoredCell, error)
	// Save persists the given completed cells; cells already held are
	// kept, not rewritten. A failed Save aborts the grid — a durable
	// session that silently stops being durable is worse than a loud
	// error.
	Save(spec string, cells []StoredCell) error
}

// CorruptCheckpointError reports a session file that cannot be read
// back: an unreadable header, or a bad record followed by good ones —
// damage a crash mid-append cannot leave behind, so no record is
// silently dropped. (A torn final record is not an error: it is cut off
// and reported through FileGridStore.OnRecovery.) Reason carries the
// underlying cause.
type CorruptCheckpointError struct {
	// Path is the corrupt file.
	Path string
	// Reason is the underlying parse/checksum failure.
	Reason error
}

// Error implements error.
func (e *CorruptCheckpointError) Error() string {
	return fmt.Sprintf("mpic: checkpoint %s is corrupt (%v) — delete the file to restart the grid", e.Path, e.Reason)
}

// Unwrap exposes the underlying cause to errors.Is/As.
func (e *CorruptCheckpointError) Unwrap() error { return e.Reason }

// FileGridStore is the GridStore used by both CLIs and the experiment
// harness: one append-only journal file per grid session — a header line
// naming the format version and the spec, then one checksummed record
// per completed cell — so a completed cell costs one appended line and
// one fsync whatever the session size. A missing file is an empty
// session; parent directories are created on first Save.
//
// A crash mid-append leaves a torn final record: Load cuts it off and
// tells OnRecovery, losing at most that cell, which a resumed run
// re-executes bit-identically. A bad record followed by good ones is no
// crash's doing, so it is a *CorruptCheckpointError, never dropped.
//
// Stores sharing one file merge rather than clobber each other: every
// operation holds an exclusive lock on a <path>.lock sidecar and first
// replays what other writers appended.
type FileGridStore struct {
	path string
	// OnRecovery, when non-nil, is called when a torn final record is
	// cut off, with the damage found — the hook CLIs use to tell the user
	// the last completed cell will re-run.
	OnRecovery func(reason error)

	// mu serializes operations within the process; the .lock sidecar
	// serializes them across processes.
	mu sync.Mutex
	j  journal
}

// NewFileGridStore returns a store persisting to the given file path.
func NewFileGridStore(path string) *FileGridStore {
	return &FileGridStore{path: path, j: journal{path: path}}
}

// Path returns the file the store persists to.
func (s *FileGridStore) Path() string { return s.path }

// update runs fn under the store's locks on journal state brought up to
// date with the file; f is the file open for an append (nil when there is
// none). create makes the parent directory first.
func (s *FileGridStore) update(spec string, create bool, fn func(f *os.File) error) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if create {
		if err := os.MkdirAll(filepath.Dir(s.path), 0o755); err != nil {
			return err
		}
	}
	unlock, err := flockPath(s.path + ".lock")
	if os.IsNotExist(err) {
		// Never saved: there is nothing on disk to contend for.
		unlock, err = func() error { return nil }, nil
	}
	if err != nil {
		return err
	}
	defer unlock()
	f, err := s.j.sync(spec, s.OnRecovery)
	if err != nil {
		return err
	}
	if f == nil {
		return fn(nil)
	}
	if err := fn(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// Load implements GridStore.
func (s *FileGridStore) Load(spec string) ([]StoredCell, error) {
	var cells []StoredCell
	err := s.update(spec, false, func(*os.File) error {
		cells = append(cells, s.j.cells...)
		return nil
	})
	if err != nil {
		return nil, err
	}
	return cells, nil
}

// Save implements GridStore by appending the cells whose (Index, Key) the
// journal does not hold yet, in one write and one fsync. A Save with no
// new cells writes nothing.
func (s *FileGridStore) Save(spec string, cells []StoredCell) error {
	return s.update(spec, true, func(f *os.File) error {
		return s.j.append(f, spec, doneRecords(s.j.fresh(cells)))
	})
}

// doneRecords wraps cells as done records.
func doneRecords(cells []StoredCell) []journalRecord {
	recs := make([]journalRecord, len(cells))
	for i := range cells {
		recs[i].Done = &cells[i]
	}
	return recs
}

// gridFingerprintVersion versions the Fingerprint preimage, separately
// from the on-disk checkpoint format: bumping it invalidates every
// default-spec session (restart, not rejection), so it changes only when
// the fingerprinted grid identity itself changes — never for a store's
// serialization tweak.
const gridFingerprintVersion = 1

// Fingerprint returns a stable identity string for the grid's resumable
// content — the default Grid.Spec of a durable session. It covers, per
// cell, the (n, scheme, rate) key, the trial layout (Trials, SeedStep),
// and the nameable parts of the scenario: topology family and size (or
// an explicit graph's hashed edge list), workload family and rounds, noise model
// and — for the built-in specs — its rate and window, plus the seed and
// execution flags. The string is filesystem-safe, so stores that keep
// one file per grid can use it as the file name.
//
// Two grids that differ only in ways a fingerprint cannot see — a Tune
// closure, a custom NoiseFunc's captured parameters, a custom workload
// builder's behavior — share a fingerprint; callers mixing such grids in
// one store must set Grid.Spec to something that tells them apart.
// (Within one grid this does not matter: resume matches cells by key and
// index, and the spec only guards against resuming a different grid.)
func (g Grid) Fingerprint() string {
	h := sha256.New()
	fmt.Fprintf(h, "mpic-grid-v%d cells=%d\n", gridFingerprintVersion, len(g.Cells))
	for _, c := range g.Cells {
		k := c.key()
		fmt.Fprintf(h, "key=%d/%d/%g trials=%d step=%d %s\n",
			k.N, k.Scheme, k.Rate, c.Trials, c.SeedStep, c.Scenario.fingerprint())
	}
	return fmt.Sprintf("g%d-%x", len(g.Cells), h.Sum(nil)[:8])
}

// fingerprint renders the scenario's stable, nameable identity for
// Grid.Fingerprint. Closures (Tune, custom builders) are outside its
// reach by design — see the Fingerprint doc.
func (sc Scenario) fingerprint() string {
	topo := "none"
	switch {
	case sc.Topology.Graph != nil:
		// An explicit graph is concrete data: hash its (deterministically
		// sorted) edge list, so two different graphs on the same node and
		// edge counts never share a fingerprint and a stale session is
		// rejected instead of silently restored.
		g := sc.Topology.Graph
		eh := sha256.New()
		for _, e := range g.Edges() {
			fmt.Fprintf(eh, "%d-%d;", e.U, e.V)
		}
		topo = fmt.Sprintf("graph(n=%d,m=%d,%x)", g.N(), g.M(), eh.Sum(nil)[:8])
	case sc.Topology.Build != nil:
		topo = fmt.Sprintf("custom(n=%d)", sc.Topology.N)
	case sc.Topology.Name != "":
		topo = fmt.Sprintf("%s(n=%d)", sc.Topology.Name, sc.Topology.N)
	}
	wl := sc.Workload.Name
	switch {
	case sc.Workload.Protocol != nil:
		wl = "custom-protocol"
	case sc.Workload.Build != nil:
		wl = "custom-build"
	case wl == "":
		wl = "random"
	}
	// inc=false is the literal left by the retired never-refreshed hash
	// mode; it stays so every existing session keeps its fingerprint.
	fp := fmt.Sprintf("topo=%s wl=%s/%d scheme=%d noise=%s seed=%d iters=%d faithful=%t inc=false wb=%g",
		topo, wl, sc.Workload.Rounds, sc.Scheme, describeNoise(sc.Noise),
		sc.Seed, sc.IterFactor, sc.Faithful, sc.WhiteBoxRate)
	// The network-model suffix appears only when a scenario actually sets
	// a delay or fault schedule, so every pre-virtual-time session keeps
	// its exact fingerprint and resumes unchanged.
	if sc.Delay != nil || sc.Faults != nil {
		fp += fmt.Sprintf(" delay=%s netfaults=%s", describeDelay(sc.Delay), describeFaults(sc.Faults))
	}
	// Epoch mode — the post-PR-9 default — gets its own suffix keyed on
	// the effective refresh interval. Explicit-legacy scenarios keep the
	// bare fingerprint (bit-identical results to the old default), and
	// sessions recorded under the old default resume only against
	// HashLegacy, never silently against the new seed discipline.
	if sc.HashMode == HashEpoch {
		r := sc.EpochRefresh
		if r <= 0 {
			r = DefaultEpochRefresh
		}
		fp += fmt.Sprintf(" hashmode=epoch/%d", r)
	}
	return fp
}

// describeNoise renders a noise spec for fingerprinting: the built-in
// specs expose their full parameterization, anything else its name.
func describeNoise(n NoiseSpec) string {
	switch s := n.(type) {
	case nil:
		return "none"
	case RandomNoiseSpec:
		return fmt.Sprintf("random(%g)", s.Rate)
	case BurstSpec:
		link := "rand"
		if s.Link != nil {
			link = fmt.Sprintf("%d>%d", s.Link.From, s.Link.To)
		}
		return fmt.Sprintf("burst(%g,link=%s,start=%d,len=%d)", s.Rate, link, s.Start, s.Length)
	case AdaptiveSpec:
		return fmt.Sprintf("adaptive(%g,per=%d)", s.Rate, s.PerChunk)
	default:
		return n.NoiseName()
	}
}

// describeDelay renders a delay spec for fingerprinting: the built-in
// specs expose their full parameterization, anything else its name.
func describeDelay(d DelaySpec) string {
	switch s := d.(type) {
	case nil:
		return "none"
	case LockstepDelaySpec:
		return "unit"
	case JitterDelaySpec:
		return fmt.Sprintf("jitter(%g,%g)", s.Base, s.Jitter)
	case LognormalDelaySpec:
		return fmt.Sprintf("lognormal(%g,%g)", s.Median, s.Sigma)
	case BandedDelaySpec:
		return fmt.Sprintf("bands(%g)", s.SlowFraction)
	default:
		return d.DelayName()
	}
}

// describeFaults renders a fault schedule for fingerprinting.
func describeFaults(f *NetFaults) string {
	if f == nil {
		return "none"
	}
	return fmt.Sprintf("sched(seed=%d,outage=%g/%d,spike=%g/%g,strag=%d/%g,crash=%d/%d)",
		f.Seed, f.OutageRate, f.OutageLen, f.SpikeRate, f.SpikeDelay,
		f.Stragglers, f.StragglerDelay, f.Crashes, f.CrashLen)
}
