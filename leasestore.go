package mpic

import (
	"os"
	"path/filepath"
	"time"
)

// LeaseStore extends GridStore with the claim/renew/release protocol a
// sharded grid session runs on: N workers — goroutines, or separate OS
// processes sharing a session directory — lease pending cells, execute
// them, and persist each completed cell under its lease. Because every
// cell is a pure function of its spec and seed salt, the protocol needs
// no consensus: a lease is a performance hint (it keeps two workers from
// duplicating work), never a correctness requirement. A crashed worker's
// leases expire and its cells are re-claimed; if the dead worker's
// result and the reclaimer's both land, they are bit-identical and the
// duplicate is dropped. The merged grid therefore equals a sequential
// RunGrid byte for byte, whatever the interleaving.
//
// Load/Save keep their GridStore meaning over the merged session state,
// so the ordinary engine (Runner.RunGrid with Grid.Store) can restore —
// or finish — a sharded session directly.
type LeaseStore interface {
	GridStore

	// Claim leases up to limit pending cells of a grid with total cells
	// to the named worker for ttl, returning the claimed indices and the
	// number of cells still pending (not completed, not quarantined —
	// including the ones just claimed and cells leased to other
	// workers). Expired leases are pruned first, so a dead worker's
	// cells come back into rotation here. pending == 0 means the grid is
	// finished.
	Claim(spec, worker string, total, limit int, ttl time.Duration) (claimed []int, pending int, err error)

	// Renew extends every lease the worker holds by ttl from now.
	Renew(spec, worker string, ttl time.Duration) error

	// Release drops every lease the worker holds, returning unfinished
	// cells to the pending pool immediately — the graceful-shutdown
	// path, where crash recovery by expiry would work but would stall
	// other workers for a TTL.
	Release(spec, worker string) error

	// SaveCell merges one completed cell into the session and drops any
	// lease on it. A cell already present is dropped silently: two
	// workers that raced the same cell (a lease expired under a slow but
	// live worker) produced bit-identical results, and the first one in
	// wins nothing but the disk write.
	SaveCell(spec, worker string, cell StoredCell) error

	// MarkFailed records a cell quarantined after exhausting its retry
	// budget, so no worker claims it again this session. Failures
	// surface in Claim's pending arithmetic and in Failures.
	MarkFailed(spec, worker string, failure FailedCell) error

	// Failures returns the cells quarantined so far, in cell order.
	Failures(spec string) ([]FailedCell, error)
}

// Lease is one granted cell lease.
type Lease struct {
	// Cell is the leased cell's index in Grid.Cells.
	Cell int
	// Worker is the holder's self-chosen name.
	Worker string
	// Expires is when the lease lapses and the cell returns to the
	// pending pool.
	Expires time.Time
}

// FailedCell records one quarantined cell of a sharded session.
type FailedCell struct {
	// Cell is the failed cell's index in Grid.Cells.
	Cell int
	// Worker is the worker that exhausted the cell's retry budget.
	Worker string
	// Attempts is how many attempts were spent.
	Attempts int
	// Reason is the final attempt's error text.
	Reason string
}

// DirLeaseStore is the LeaseStore used by the grid service and the
// sharded CLI paths: one session directory shared by every worker,
// holding
//
//	journal       — completed cells, lease claims, renewals, releases
//	                and quarantined cells, one checksummed record per
//	                line (the FileGridStore format)
//	journal.lock  — the flock sidecar serializing every operation
//
// Every operation replays what other workers appended, decides on the
// merged state, and appends at most one record; a claim that changes
// nothing appends nothing. Compaction atomically rewrites the live state
// (temporary file, fsync, rename, directory fsync) when the session
// drains and when dead records outnumber it by journalCompactFactor.
//
// Workers sharing one DirLeaseStore value wake each other: every append
// closes a channel a RunGridSharded worker with nothing to claim waits
// on, so it asks again at once instead of sleeping out ShardOptions.Poll.
// Workers in other processes see the appends only when they poll.
type DirLeaseStore struct {
	dir  string
	file *FileGridStore
	// wake is closed and cleared by every append; nil until a worker
	// asks for it. Guarded by file.mu.
	wake chan struct{}

	// OnRecovery, when non-nil, is called when a torn final record of
	// the journal is cut off, with the damage found: a lost claim, renewal
	// or release is re-derived by the next Claim, a lost done cell re-runs.
	OnRecovery func(reason error)

	// Clock replaces time.Now for lease expiry decisions; nil means
	// time.Now. Tests inject a fake clock to step leases over their TTL
	// without sleeping.
	Clock func() time.Time
}

// NewDirLeaseStore returns a lease store over the given session
// directory, created on first use.
func NewDirLeaseStore(dir string) *DirLeaseStore {
	file := NewFileGridStore(filepath.Join(dir, "journal"))
	// A directory still holding the two-ledger layout is a session this
	// build cannot read.
	file.j.retired = []string{filepath.Join(dir, "cells.json"), filepath.Join(dir, "leases.json")}
	s := &DirLeaseStore{dir: dir, file: file}
	file.OnRecovery = func(reason error) {
		if s.OnRecovery != nil {
			s.OnRecovery(reason)
		}
	}
	return s
}

// Dir returns the session directory.
func (s *DirLeaseStore) Dir() string { return s.dir }

func (s *DirLeaseStore) now() time.Time {
	if s.Clock != nil {
		return s.Clock()
	}
	return time.Now()
}

// wakeup returns a channel closed by the next append through this store
// value — the hook RunGridSharded waits on beside its Poll timer.
func (s *DirLeaseStore) wakeup() <-chan struct{} {
	s.file.mu.Lock()
	defer s.file.mu.Unlock()
	if s.wake == nil {
		s.wake = make(chan struct{})
	}
	return s.wake
}

// record runs decide under the journal lock and appends the records it
// returns, waking the workers waiting on this store, then compacts when
// the session has drained or its dead records pile up.
func (s *DirLeaseStore) record(spec string, decide func(j *journal) (recs []journalRecord, drained bool)) error {
	return s.file.update(spec, true, func(f *os.File) error {
		j := &s.file.j
		recs, drained := decide(j)
		if err := j.append(f, spec, recs); err != nil {
			return err
		}
		if len(recs) > 0 && s.wake != nil {
			close(s.wake)
			s.wake = nil
		}
		j.drained = j.drained || drained
		if dead := j.records - j.live(); (drained && dead > 0) || dead > journalCompactFactor*(j.live()+1) {
			return j.compact(s.now())
		}
		return nil
	})
}

// Load implements GridStore over the merged session state.
func (s *DirLeaseStore) Load(spec string) ([]StoredCell, error) { return s.file.Load(spec) }

// Save implements GridStore by appending the cells the session does not
// hold yet — the path the ordinary single-writer engine uses when it
// finishes a sharded session's stragglers.
func (s *DirLeaseStore) Save(spec string, cells []StoredCell) error {
	return s.record(spec, func(j *journal) ([]journalRecord, bool) { return doneRecords(j.fresh(cells)), false })
}

// Claim implements LeaseStore.
func (s *DirLeaseStore) Claim(spec, worker string, total, limit int, ttl time.Duration) (claimed []int, pending int, err error) {
	err = s.record(spec, func(j *journal) ([]journalRecord, bool) {
		now := s.now()
		for i := 0; i < total; i++ {
			if _, failed := j.failed[i]; j.done[i] || failed {
				continue
			}
			pending++
			if l, leased := j.leases[i]; len(claimed) < limit && !(leased && l.Expires.After(now)) {
				claimed = append(claimed, i)
			}
		}
		if len(claimed) == 0 {
			return nil, pending == 0
		}
		return []journalRecord{{Claim: &journalLease{Worker: worker, Cells: claimed, Expires: now.Add(ttl)}}}, pending == 0
	})
	if err != nil {
		return nil, 0, err
	}
	return claimed, pending, nil
}

// Renew implements LeaseStore.
func (s *DirLeaseStore) Renew(spec, worker string, ttl time.Duration) error {
	return s.workerRecord(spec, worker, journalRecord{Renew: &journalLease{Worker: worker, Expires: s.now().Add(ttl)}})
}

// Release implements LeaseStore.
func (s *DirLeaseStore) Release(spec, worker string) error {
	return s.workerRecord(spec, worker, journalRecord{Release: &journalLease{Worker: worker}})
}

// workerRecord appends rec if worker holds any lease, expired or not.
func (s *DirLeaseStore) workerRecord(spec, worker string, rec journalRecord) error {
	return s.record(spec, func(j *journal) ([]journalRecord, bool) {
		for _, l := range j.leases {
			if l.Worker == worker {
				return []journalRecord{rec}, false
			}
		}
		return nil, false
	})
}

// SaveCell implements LeaseStore. The done record also drops every lease
// on the cell, whoever holds one — a lease on a completed cell is pure
// staleness.
func (s *DirLeaseStore) SaveCell(spec, worker string, cell StoredCell) error {
	return s.record(spec, func(j *journal) ([]journalRecord, bool) {
		if j.done[cell.Index] {
			return nil, false
		}
		return []journalRecord{{Done: &cell}}, false
	})
}

// MarkFailed implements LeaseStore.
func (s *DirLeaseStore) MarkFailed(spec, worker string, failure FailedCell) error {
	return s.record(spec, func(j *journal) ([]journalRecord, bool) {
		_, failed := j.failed[failure.Cell]
		if j.done[failure.Cell] || failed {
			return nil, false
		}
		return []journalRecord{{Failed: &failure}}, false
	})
}

// Failures implements LeaseStore.
func (s *DirLeaseStore) Failures(spec string) ([]FailedCell, error) {
	var failed []FailedCell
	err := s.file.update(spec, false, func(*os.File) error {
		failed = s.file.j.failures()
		return nil
	})
	if err != nil {
		return nil, err
	}
	return failed, nil
}

// Leases returns the currently active (unexpired) leases, in cell
// order — introspection for status endpoints and tests, not part of the
// LeaseStore protocol.
func (s *DirLeaseStore) Leases(spec string) ([]Lease, error) {
	var leases []Lease
	err := s.file.update(spec, false, func(*os.File) error {
		leases = s.file.j.activeLeases(s.now())
		return nil
	})
	if err != nil {
		return nil, err
	}
	return leases, nil
}
