package mpic

import (
	"crypto/sha256"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"

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
	// Save atomically replaces the persisted state with the given
	// completed cells. A failed Save aborts the grid — a durable session
	// that silently stops being durable is worse than a loud error.
	Save(spec string, cells []StoredCell) error
}

// fileGridStoreVersion is the on-disk checkpoint format version. It is
// bumped when the JSON shape changes incompatibly; FileGridStore rejects
// checkpoints from other versions instead of guessing at their layout
// (version 0 — the pre-session format once private to mpicbench — is
// rejected with the same message; version 1 predates the payload
// checksum; version 2 predates the delay key field and per-trial
// Results, whose checksums this build could no longer reproduce).
const fileGridStoreVersion = 3

// fileGridState is the on-disk JSON shape of FileGridStore.
type fileGridState struct {
	// Version is the checkpoint format version (fileGridStoreVersion).
	Version int
	// Spec fingerprints the grid the cells belong to.
	Spec string
	// Checksum authenticates the payload: hex SHA-256 over the version,
	// the spec, and the compact JSON of Cells (see checkpointChecksum).
	// A file whose recomputed checksum disagrees — a torn write, a
	// bit-flip, a hand edit — is treated as corrupt, not as a different
	// grid.
	Checksum string
	// Cells are the completed cells, in completion order.
	Cells []StoredCell
}

// checkpointChecksum computes the integrity checksum of a checkpoint
// payload. It covers the version and spec too, so corruption anywhere in
// the file surfaces as a checksum mismatch (the corrupt-and-recover
// path) rather than being misread as a semantic rejection.
func checkpointChecksum(version int, spec string, cellsJSON []byte) string {
	h := sha256.New()
	fmt.Fprintf(h, "mpic-checkpoint-v%d %s\n", version, spec)
	h.Write(cellsJSON)
	return fmt.Sprintf("%x", h.Sum(nil))
}

// CorruptCheckpointError reports a checkpoint file that could not be
// read back: unreadable bytes, invalid JSON (e.g. a write torn mid-
// array), or a payload whose checksum does not match. FileGridStore
// recovers from its .bak backup when one is good; this error surfaces
// only when no good state is left, and Reason carries the underlying
// cause.
type CorruptCheckpointError struct {
	// Path is the corrupt file.
	Path string
	// Reason is the underlying parse/checksum/read failure.
	Reason error
}

// Error implements error.
func (e *CorruptCheckpointError) Error() string {
	return fmt.Sprintf("mpic: checkpoint %s is corrupt (%v); no usable backup — delete the file to restart the grid", e.Path, e.Reason)
}

// Unwrap exposes the underlying cause to errors.Is/As.
func (e *CorruptCheckpointError) Unwrap() error { return e.Reason }

// FileGridStore is the GridStore used by both CLIs and the experiment
// harness: one JSON file per grid session, atomically rewritten after
// every completed cell. Save is crash-proof: the temporary file is
// fsynced before the rename, the parent directory is fsynced after it
// (so neither the data nor the rename can be lost to a power cut behind
// a "successful" Save), the payload carries a SHA-256 checksum, and the
// previous state is kept as a verified-good .bak — Load falls back to it
// when the primary file is torn, corrupt, or missing mid-rotation, so a
// damaged session resumes from its last good state instead of aborting
// or silently restarting. A missing file (with no backup) is an empty
// session; parent directories are created on first Save.
//
// Concurrent access is coordinated, not assumed away: every Load and
// Save holds an exclusive advisory lock on a <path>.lock sidecar (so two
// processes sharing a session file serialize instead of interleaving
// renames), and Save detects a session rewritten behind this store's
// back — valid state on disk whose checksum is not the one this store
// last read or wrote — and fails loudly with *SessionConflictError
// instead of silently clobbering the other writer's cells. Multi-writer
// sharding goes through a LeaseStore (NewDirLeaseStore), which
// serializes whole read-modify-write merges; the conflict error is the
// backstop for uncoordinated writers.
type FileGridStore struct {
	path string
	// OnRecovery, when non-nil, is called when Load falls back to the
	// .bak backup, with the corruption that made the primary unusable —
	// the hook CLIs use to tell the user a damaged session was recovered
	// rather than resumed verbatim.
	OnRecovery func(reason error)

	// mu serializes Load/Save within the process; the .lock sidecar
	// serializes them across processes.
	mu sync.Mutex
	// lastChecksum is the checksum of the state this store last read or
	// wrote ("" before the first Load, or after loading an empty
	// session) — the optimistic-concurrency token Save compares against
	// the file on disk.
	lastChecksum string
}

// SessionConflictError reports a checkpoint rewritten behind a store's
// back: between this store's last read (or write) and this Save, another
// writer — a second process sharing the session file, or a second store
// in this one — replaced the state with valid state of its own.
// Proceeding would silently discard that writer's cells, so the Save
// fails loudly instead. Writers that mean to share a session must
// coordinate through a LeaseStore (NewDirLeaseStore), which serializes
// read-modify-write merges under a directory lock.
type SessionConflictError struct {
	// Path is the contested checkpoint file.
	Path string
	// StoredSpec is the spec of the state found on disk.
	StoredSpec string
}

// Error implements error.
func (e *SessionConflictError) Error() string {
	return fmt.Sprintf("mpic: checkpoint %s was rewritten by another writer (spec %q); concurrent sessions must share a lease store, not a bare file", e.Path, e.StoredSpec)
}

// NewFileGridStore returns a store persisting to the given file path.
func NewFileGridStore(path string) *FileGridStore {
	return &FileGridStore{path: path}
}

// Path returns the file the store persists to.
func (s *FileGridStore) Path() string { return s.path }

// BackupPath returns the last-good-state backup file Load recovers from.
func (s *FileGridStore) BackupPath() string { return s.path + ".bak" }

// readRaw reads and structurally validates one checkpoint file — JSON
// shape, format version, payload checksum — without judging its spec.
// Corruption (unreadable, unparsable, checksum mismatch) comes back as
// *CorruptCheckpointError; a version rejection is a semantic error that
// no backup can fix.
func readRaw(path string) (*fileGridState, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		if os.IsNotExist(err) {
			return nil, err // sentinel for the caller's fallback logic
		}
		return nil, &CorruptCheckpointError{Path: path, Reason: err}
	}
	var st fileGridState
	if err := json.Unmarshal(data, &st); err != nil {
		return nil, &CorruptCheckpointError{Path: path, Reason: err}
	}
	if st.Version != fileGridStoreVersion {
		return nil, fmt.Errorf("mpic: checkpoint %s has format version %d; this build reads version %d — delete the file to restart the grid",
			path, st.Version, fileGridStoreVersion)
	}
	cellsJSON, err := json.Marshal(st.Cells)
	if err != nil {
		return nil, &CorruptCheckpointError{Path: path, Reason: err}
	}
	if sum := checkpointChecksum(st.Version, st.Spec, cellsJSON); sum != st.Checksum {
		return nil, &CorruptCheckpointError{Path: path,
			Reason: fmt.Errorf("payload checksum mismatch (stored %.12s…, computed %.12s…)", st.Checksum, sum)}
	}
	return &st, nil
}

// readState reads and fully validates one checkpoint file: everything
// readRaw checks, then the spec.
func readState(path, spec string) (*fileGridState, error) {
	st, err := readRaw(path)
	if err != nil {
		return nil, err
	}
	if st.Spec != spec {
		return nil, fmt.Errorf("mpic: checkpoint %s was written by a different grid (%q); delete it or match the grid (%q)",
			path, st.Spec, spec)
	}
	return st, nil
}

// Load implements GridStore, with last-good-state recovery: when the
// primary file is corrupt — or missing while a backup exists, the window
// a crash between Save's two renames leaves behind — the verified .bak
// is loaded instead and OnRecovery (if set) is told why. Semantic
// rejections (wrong format version, wrong spec) are returned as-is: a
// backup of the same session could not answer differently.
func (s *FileGridStore) Load(spec string) ([]StoredCell, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	unlock, err := lockSidecar(s.path)
	if err != nil {
		return nil, err
	}
	defer unlock()
	st, err := readState(s.path, spec)
	if err == nil {
		s.lastChecksum = st.Checksum
		return st.Cells, nil
	}
	var corrupt *CorruptCheckpointError
	missing := os.IsNotExist(err)
	if !missing && !errors.As(err, &corrupt) {
		return nil, err // version/spec rejection: loud, unrecoverable
	}
	bst, berr := readState(s.BackupPath(), spec)
	if berr == nil {
		if missing {
			err = fmt.Errorf("mpic: checkpoint %s missing (crash between Save renames?)", s.path)
		}
		if s.OnRecovery != nil {
			s.OnRecovery(err)
		}
		s.lastChecksum = bst.Checksum
		return bst.Cells, nil
	}
	if missing {
		// Neither file exists (or the backup is itself unusable for a
		// session that never had a primary): an empty session.
		if os.IsNotExist(berr) {
			s.lastChecksum = ""
			return nil, nil
		}
		return nil, berr
	}
	return nil, corrupt
}

// Save implements GridStore. The write path is ordered for crash
// durability: marshal with checksum, write and fsync a temporary file,
// rotate the current file — only after verifying it still parses, so the
// backup always holds the last GOOD state — to .bak, rename the
// temporary into place, and fsync the parent directory so both renames
// survive power loss. A crash at any point leaves either the old state,
// the new state, or a missing primary with a good backup — never a
// half-written file presented as truth.
//
// Before writing, Save re-reads the file under the lock: valid state
// whose checksum differs from what this store last read or wrote means
// another writer got there first, and the Save fails with
// *SessionConflictError rather than clobbering it. (Unreadable or torn
// state is NOT a conflict — overwriting corruption with good state is
// exactly the recovery path.)
func (s *FileGridStore) Save(spec string, cells []StoredCell) error {
	cellsJSON, err := json.Marshal(cells)
	if err != nil {
		return err
	}
	checksum := checkpointChecksum(fileGridStoreVersion, spec, cellsJSON)
	data, err := json.MarshalIndent(fileGridState{
		Version:  fileGridStoreVersion,
		Spec:     spec,
		Checksum: checksum,
		Cells:    cells,
	}, "", "  ")
	if err != nil {
		return err
	}
	dir := filepath.Dir(s.path)
	if dir != "." {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return err
		}
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	unlock, err := lockSidecar(s.path)
	if err != nil {
		return err
	}
	defer unlock()
	cur, curErr := readRaw(s.path)
	if curErr == nil && cur.Checksum != s.lastChecksum {
		return &SessionConflictError{Path: s.path, StoredSpec: cur.Spec}
	}
	tmp := s.path + ".tmp"
	if err := writeFileSync(tmp, append(data, '\n')); err != nil {
		return err
	}
	// Rotate the previous state to .bak only when it verifies: a torn
	// primary must not evict the good backup that is the recovery path.
	// (After the conflict check, valid current state is necessarily this
	// store's own last state.)
	if curErr == nil && cur.Spec == spec {
		if err := os.Rename(s.path, s.BackupPath()); err != nil {
			return err
		}
	}
	if err := os.Rename(tmp, s.path); err != nil {
		return err
	}
	if err := syncDir(dir); err != nil {
		return err
	}
	s.lastChecksum = checksum
	return nil
}

// lockSidecar locks the <path>.lock sidecar guarding a session file. A
// missing parent directory (a session that has never been saved) yields
// a no-op unlock: there is nothing on disk to contend for, and Save
// creates the directory before locking.
func lockSidecar(path string) (func() error, error) {
	unlock, err := flockPath(path + ".lock")
	if err != nil {
		if os.IsNotExist(err) {
			return func() error { return nil }, nil
		}
		return nil, err
	}
	return unlock, nil
}

// writeFileSync writes data to path and fsyncs it before closing — the
// half of crash durability that guarantees the bytes, not just the name,
// are on disk.
func writeFileSync(path string, data []byte) error {
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(data); err != nil {
		f.Close()
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// syncDir fsyncs a directory, making renames inside it durable.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	err = d.Sync()
	if cerr := d.Close(); err == nil {
		err = cerr
	}
	return err
}

// RetryingGridStore decorates any GridStore with bounded retries under
// capped exponential backoff — the wrapper that keeps a transient I/O
// error (NFS hiccup, antivirus lock, overloaded disk) from aborting a
// durable session whose whole point is surviving interruptions.
//
// Corruption errors (*CorruptCheckpointError), session conflicts
// (*SessionConflictError), and semantic rejections are NOT retried-
// around by re-reading: a deterministic failure answers the same every
// time, so only the first error class — everything else — consumes
// attempts. The zero value of every knob picks a sane default.
type RetryingGridStore struct {
	// Inner is the decorated store.
	Inner GridStore
	// MaxAttempts is the total tries per operation (0 means 3).
	MaxAttempts int
	// BaseDelay is the backoff before the second attempt, doubling per
	// attempt (0 means 5ms).
	BaseDelay time.Duration
	// MaxDelay caps the backoff (0 means 250ms).
	MaxDelay time.Duration
	// Sleep replaces the backoff sleep (tests use a recording stub); nil
	// means time.Sleep.
	Sleep func(time.Duration)
}

// NewRetryingGridStore wraps inner with the default retry budget.
func NewRetryingGridStore(inner GridStore) *RetryingGridStore {
	return &RetryingGridStore{Inner: inner}
}

// retry runs op up to MaxAttempts times with capped doubling backoff.
func (r *RetryingGridStore) retry(op func() error) error {
	attempts := r.MaxAttempts
	if attempts <= 0 {
		attempts = 3
	}
	delay := r.BaseDelay
	if delay <= 0 {
		delay = 5 * time.Millisecond
	}
	maxDelay := r.MaxDelay
	if maxDelay <= 0 {
		maxDelay = 250 * time.Millisecond
	}
	var err error
	for a := 1; ; a++ {
		err = op()
		var corrupt *CorruptCheckpointError
		var conflict *SessionConflictError
		if err == nil || a >= attempts || errors.As(err, &corrupt) || errors.As(err, &conflict) {
			return err
		}
		d := delay
		if d > maxDelay {
			d = maxDelay
		}
		if r.Sleep != nil {
			r.Sleep(d)
		} else {
			time.Sleep(d)
		}
		delay *= 2
	}
}

// Load implements GridStore with retries.
func (r *RetryingGridStore) Load(spec string) ([]StoredCell, error) {
	var cells []StoredCell
	err := r.retry(func() error {
		var e error
		cells, e = r.Inner.Load(spec)
		return e
	})
	if err != nil {
		return nil, err
	}
	return cells, nil
}

// Save implements GridStore with retries.
func (r *RetryingGridStore) Save(spec string, cells []StoredCell) error {
	return r.retry(func() error { return r.Inner.Save(spec, cells) })
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
