package mpic

import (
	"bytes"
	"crypto/rand"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// journalVersion is the session file format version. Versions up to 3
// were whole-file JSON checkpoints (lease sessions also kept a version-1
// ledger beside theirs); all are rejected with delete-to-restart
// guidance rather than guessed at.
const journalVersion = 4

// journalFormat names the format in the header line.
const journalFormat = "mpic-session-journal"

// journalCompactFactor bounds a lease journal's dead records: once they
// outnumber the live state by this factor, compaction drops them.
const journalCompactFactor = 4

// journalHeader is the first line of a journal.
type journalHeader struct {
	Format  string
	Version int
	Spec    string
	// ID is random per file, so a file that replaces this one under the
	// same name and inode is never mistaken for it.
	ID string
	// Sum is the hex SHA-256 of ID under the journal's checksum tag.
	Sum string
}

// journalRecord is one line after the header; exactly one field is set.
type journalRecord struct {
	Done    *StoredCell   `json:",omitempty"` // a completed cell
	Claim   *journalLease `json:",omitempty"` // leases Cells to Worker until Expires
	Renew   *journalLease `json:",omitempty"` // extends Worker's leases to Expires
	Release *journalLease `json:",omitempty"` // drops Worker's leases
	Failed  *FailedCell   `json:",omitempty"` // a quarantined cell
}

// journalLease is the payload of the three lease records.
type journalLease struct {
	Worker  string
	Cells   []int `json:",omitempty"`
	Expires time.Time
}

// cellID identifies a stored cell: resume matches index and key together.
type cellID struct {
	Index int
	Key   GridKey
}

// journal is the replayed state of one session file and how far into
// which file it has read. The file is a header line, then one record
// per line:
//
//	<hex SHA-256> <compact JSON record>\n
//
// The checksum covers the record under a tag naming the version and the
// spec, so a record from another session or format cannot authenticate.
// Records are only appended, under the owner's file lock, and every
// operation first replays what other writers appended, so stores sharing
// a file merge. A bad final line is a torn append and is cut off; a bad
// line followed by good ones is corruption and is never dropped. The
// owner serializes access.
type journal struct {
	path string
	// retired are files whose presence marks a retired session layout.
	retired []string
	// drained is set once the session has nothing pending: the owner then
	// drops the replayed state after every call, so a finished session
	// holds no cells in memory between calls.
	drained bool

	header []byte // the header line as on disk; nil before one is read
	spec   string
	tag    []byte      // checksum tag of every line
	file   os.FileInfo // identity of the replayed file
	off    int64       // bytes of it replayed

	cells   []StoredCell // completed cells, first occurrence, in journal order
	held    map[cellID]bool
	done    map[int]bool
	leases  map[int]Lease
	failed  map[int]FailedCell
	records int // records since the header
}

// reset forgets the replayed state, so the next sync rereads the file.
func (j *journal) reset() { *j = journal{path: j.path, retired: j.retired, drained: j.drained} }

// setHeader starts an empty state under a header.
func (j *journal) setHeader(line []byte, spec string) {
	j.header, j.spec, j.tag = line, spec, []byte(fmt.Sprintf("mpic-checkpoint-v%d %s\n", journalVersion, spec))
	j.cells, j.records = nil, 0
	j.held = make(map[cellID]bool)
	j.done = make(map[int]bool)
	j.leases = make(map[int]Lease)
	j.failed = make(map[int]FailedCell)
}

// sum is the checksum of one line's payload under the journal's tag.
func (j *journal) sum(payload []byte) [sha256.Size]byte {
	h := sha256.New()
	h.Write(j.tag)
	h.Write(payload)
	var s [sha256.Size]byte
	h.Sum(s[:0])
	return s
}

// sync brings the state up to date with the file and checks it belongs
// to spec, returning the file open for an append (nil when there is no
// file). A replaced or shortened file is replayed from its start; a torn
// final record is cut off and reported through onRecovery.
func (j *journal) sync(spec string, onRecovery func(error)) (*os.File, error) {
	for _, name := range j.retired {
		if j.header != nil {
			break
		}
		if _, err := os.Stat(name); err == nil {
			return nil, fmt.Errorf("mpic: session directory %s holds %s from a retired session format; this build reads journal version %d — delete the session directory to restart",
				filepath.Dir(name), filepath.Base(name), journalVersion)
		}
	}
	f, err := os.OpenFile(j.path, os.O_RDWR, 0)
	if os.IsNotExist(err) {
		j.reset()
		return nil, nil
	}
	if err != nil {
		return nil, err
	}
	if err = j.replay(f, onRecovery); err == nil && j.header != nil && j.spec != spec {
		err = fmt.Errorf("mpic: checkpoint %s was written by a different grid (%q); delete it or match the grid (%q)",
			j.path, j.spec, spec)
	}
	if err != nil {
		f.Close()
		return nil, err
	}
	return f, nil
}

// replay applies the bytes of f past the replayed offset.
func (j *journal) replay(f *os.File, onRecovery func(error)) error {
	fi, err := f.Stat()
	if err != nil {
		return err
	}
	if j.file == nil || !os.SameFile(j.file, fi) || fi.Size() < j.off || !j.headerIntact(f) {
		j.reset()
	}
	j.file = fi
	buf := make([]byte, fi.Size()-j.off)
	if _, err := f.ReadAt(buf, j.off); err != nil {
		return err
	}
	if j.header == nil && len(buf) > 0 {
		n, err := j.readHeader(buf)
		if err != nil {
			j.reset()
			return err
		}
		buf = buf[n:]
	}
	for len(buf) > 0 {
		n := bytes.IndexByte(buf, '\n') + 1
		var rec journalRecord
		bad := errNoLineEnd
		if n > 0 {
			bad = j.decode(buf[:n-1], &rec)
		}
		if bad == nil {
			j.apply(&rec)
			j.off += int64(n)
			buf = buf[n:]
			continue
		}
		if n > 0 && n < len(buf) {
			err := &CorruptCheckpointError{Path: j.path,
				Reason: fmt.Errorf("bad record at byte %d followed by more records: %w", j.off, bad)}
			j.reset()
			return err
		}
		if err := f.Truncate(j.off); err != nil {
			return err
		}
		if onRecovery != nil {
			onRecovery(&CorruptCheckpointError{Path: j.path,
				Reason: fmt.Errorf("torn final record at byte %d cut off: %w", j.off, bad)})
		}
		return f.Sync()
	}
	return nil
}

// errNoLineEnd is the damage of a final line without its newline.
var errNoLineEnd = errors.New("record without a line end")

// headerIntact reports whether the file still starts with the replayed
// header — false when a new file took over the old one's inode.
func (j *journal) headerIntact(f *os.File) bool {
	got := make([]byte, len(j.header))
	_, err := f.ReadAt(got, 0)
	return err == nil && bytes.Equal(got, j.header)
}

// readHeader installs the header at the start of buf and returns its
// length. A whole-file JSON checkpoint of an older format is rejected by
// its version; anything else unreadable is a torn header.
func (j *journal) readHeader(buf []byte) (int, error) {
	n := bytes.IndexByte(buf, '\n') + 1
	var h journalHeader
	if n == 0 || json.Unmarshal(buf[:n-1], &h) != nil || h.Format != journalFormat {
		if h = (journalHeader{}); json.Unmarshal(buf, &h) != nil || h.Format == journalFormat {
			return 0, &CorruptCheckpointError{Path: j.path, Reason: errors.New("torn or unreadable header")}
		}
	}
	if h.Version != journalVersion {
		return 0, fmt.Errorf("mpic: checkpoint %s has format version %d; this build reads version %d — delete the file to restart the grid",
			j.path, h.Version, journalVersion)
	}
	j.setHeader(append([]byte(nil), buf[:n]...), h.Spec)
	if sum := j.sum([]byte(h.ID)); h.Sum != hex.EncodeToString(sum[:]) {
		return 0, &CorruptCheckpointError{Path: j.path, Reason: errors.New("header checksum mismatch")}
	}
	j.off = int64(n)
	return n, nil
}

// decode authenticates and parses one record line (without its newline).
func (j *journal) decode(line []byte, rec *journalRecord) error {
	const hexLen = 2 * sha256.Size
	var want [sha256.Size]byte
	if len(line) <= hexLen || line[hexLen] != ' ' {
		return errors.New("malformed record")
	}
	if _, err := hex.Decode(want[:], line[:hexLen]); err != nil || j.sum(line[hexLen+1:]) != want {
		return errors.New("record checksum mismatch")
	}
	return json.Unmarshal(line[hexLen+1:], rec)
}

// apply folds one record into the state.
func (j *journal) apply(r *journalRecord) {
	j.records++
	switch {
	case r.Done != nil:
		c := *r.Done
		delete(j.leases, c.Index)
		if id := (cellID{c.Index, c.Key}); !j.held[id] {
			j.held[id] = true
			j.done[c.Index] = true
			j.cells = append(j.cells, c)
		}
	case r.Claim != nil:
		for _, i := range r.Claim.Cells {
			j.leases[i] = Lease{Cell: i, Worker: r.Claim.Worker, Expires: r.Claim.Expires}
		}
	case r.Renew != nil, r.Release != nil:
		for i, l := range j.leases {
			switch {
			case r.Renew != nil && l.Worker == r.Renew.Worker:
				l.Expires = r.Renew.Expires
				j.leases[i] = l
			case r.Release != nil && l.Worker == r.Release.Worker:
				delete(j.leases, i)
			}
		}
	case r.Failed != nil:
		f := *r.Failed
		delete(j.leases, f.Cell)
		if _, ok := j.failed[f.Cell]; !ok && !j.done[f.Cell] {
			j.failed[f.Cell] = f
		}
	}
}

// fresh returns the cells the journal does not hold yet, each once. The
// usual caller passes what the journal holds, in journal order, then the
// new cells; that prefix costs one comparison per held cell.
func (j *journal) fresh(cells []StoredCell) []StoredCell {
	start := len(j.cells)
	if start > len(cells) {
		start = 0
	}
	for i, c := range j.cells[:start] {
		if cells[i].Index != c.Index || cells[i].Key != c.Key {
			start = 0
			break
		}
	}
	var out []StoredCell
	seen := make(map[cellID]bool)
	for _, c := range cells[start:] {
		if id := (cellID{c.Index, c.Key}); !j.held[id] && !seen[id] {
			seen[id] = true
			out = append(out, c)
		}
	}
	return out
}

// write appends recs to f in one write — after a fresh header when the
// state has none — fsyncs f and applies recs. A failure resets the state,
// so the next sync rereads whatever reached the file.
func (j *journal) write(f *os.File, spec string, recs []journalRecord) (err error) {
	defer func() {
		if err != nil {
			j.reset()
		}
	}()
	var buf []byte
	if j.header == nil {
		var id [8]byte
		if _, err := rand.Read(id[:]); err != nil {
			return err
		}
		h := journalHeader{Format: journalFormat, Version: journalVersion, Spec: spec, ID: hex.EncodeToString(id[:])}
		j.setHeader(nil, spec)
		sum := j.sum([]byte(h.ID))
		h.Sum = hex.EncodeToString(sum[:])
		if buf, err = json.Marshal(h); err != nil {
			return err
		}
		buf = append(buf, '\n')
		j.header = append([]byte(nil), buf...)
	}
	for i := range recs {
		payload, err := json.Marshal(&recs[i])
		if err != nil {
			return err
		}
		sum := j.sum(payload)
		var sumHex [2 * sha256.Size]byte
		hex.Encode(sumHex[:], sum[:])
		buf = append(append(append(append(buf, sumHex[:]...), ' '), payload...), '\n')
	}
	if _, err := f.WriteAt(buf, j.off); err != nil {
		return err
	}
	if err := f.Sync(); err != nil {
		return err
	}
	j.off += int64(len(buf))
	for i := range recs {
		j.apply(&recs[i])
	}
	return nil
}

// append writes recs at the end of the journal with one write and one
// fsync. f is what sync returned; with no file yet, the journal is
// created with its header and recs in one write, and the directory is
// fsynced so the new name survives a power cut.
func (j *journal) append(f *os.File, spec string, recs []journalRecord) error {
	if len(recs) == 0 {
		return nil
	}
	if f != nil {
		return j.write(f, spec, recs)
	}
	return j.create(j.path, spec, recs)
}

// create writes a new journal file at path holding a fresh header and
// recs, fsyncs it and its directory, and makes it the replayed state.
func (j *journal) create(path, spec string, recs []journalRecord) error {
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE|os.O_EXCL, 0o644)
	if err != nil {
		return err
	}
	j.reset()
	if err = j.write(f, spec, recs); err == nil {
		j.file, err = f.Stat()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil && path != j.path {
		err = os.Rename(path, j.path)
	}
	if err != nil {
		j.reset()
		return err
	}
	return syncDir(filepath.Dir(j.path))
}

// live is the size of the live state in records.
func (j *journal) live() int { return len(j.cells) + len(j.failed) + len(j.leases) }

// compact atomically replaces the journal with its live state — done and
// quarantined cells, leases unexpired at now — written to a temporary
// file, fsynced, renamed over the journal, and the directory fsynced.
func (j *journal) compact(now time.Time) error {
	recs := make([]journalRecord, 0, j.live())
	for i := range j.cells {
		recs = append(recs, journalRecord{Done: &j.cells[i]})
	}
	for _, f := range j.failures() {
		f := f
		recs = append(recs, journalRecord{Failed: &f})
	}
	for _, l := range j.activeLeases(now) {
		recs = append(recs, journalRecord{Claim: &journalLease{Worker: l.Worker, Cells: []int{l.Cell}, Expires: l.Expires}})
	}
	tmp := j.path + ".tmp"
	os.Remove(tmp) // left by a crash mid-compaction
	return j.create(tmp, j.spec, recs)
}

// failures returns the quarantined cells in cell order.
func (j *journal) failures() []FailedCell {
	var out []FailedCell
	for _, f := range j.failed {
		out = append(out, f)
	}
	sort.Slice(out, func(a, b int) bool { return out[a].Cell < out[b].Cell })
	return out
}

// activeLeases returns the leases unexpired at now, in cell order.
func (j *journal) activeLeases(now time.Time) []Lease {
	var out []Lease
	for _, l := range j.leases {
		if l.Expires.After(now) {
			out = append(out, l)
		}
	}
	sort.Slice(out, func(a, b int) bool { return out[a].Cell < out[b].Cell })
	return out
}

// syncDir fsyncs a directory, making the names created in it durable.
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
