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
)

// journalVersion is the session file format version. Versions up to 3
// were whole-file JSON checkpoints; all are rejected with
// delete-to-restart guidance rather than guessed at.
const journalVersion = 4

// journalFormat names the format in the header line.
const journalFormat = "mpic-session-journal"

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

// journalRecord is one line after the header: a completed cell. Older
// version-4 journals also hold records of other kinds; they pass the
// checksum, decode with Done unset, and are skipped.
type journalRecord struct {
	Done *StoredCell `json:",omitempty"`
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

	header []byte // the header line as on disk; nil before one is read
	spec   string
	tag    []byte      // checksum tag of every line
	file   os.FileInfo // identity of the replayed file
	off    int64       // bytes of it replayed

	cells []StoredCell // completed cells, first occurrence, in journal order
	held  map[cellID]bool
}

// reset forgets the replayed state, so the next sync rereads the file.
func (j *journal) reset() { *j = journal{path: j.path} }

// setHeader starts an empty state under a header.
func (j *journal) setHeader(line []byte, spec string) {
	j.header, j.spec, j.tag = line, spec, []byte(fmt.Sprintf("mpic-checkpoint-v%d %s\n", journalVersion, spec))
	j.cells = nil
	j.held = make(map[cellID]bool)
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
// its version; anything else — a JSON object that claims this version
// but lacks the format name included — is a torn or unreadable header.
func (j *journal) readHeader(buf []byte) (int, error) {
	n := bytes.IndexByte(buf, '\n') + 1
	var h journalHeader
	if n == 0 || json.Unmarshal(buf[:n-1], &h) != nil || h.Format != journalFormat {
		if h = (journalHeader{}); json.Unmarshal(buf, &h) != nil || h.Format == journalFormat || h.Version == journalVersion {
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
	if r.Done == nil {
		return
	}
	if id := (cellID{r.Done.Index, r.Done.Key}); !j.held[id] {
		j.held[id] = true
		j.cells = append(j.cells, *r.Done)
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
	return j.create(spec, recs)
}

// create writes a new journal file holding a fresh header and recs,
// fsyncs it and its directory, and makes it the replayed state.
func (j *journal) create(spec string, recs []journalRecord) error {
	f, err := os.OpenFile(j.path, os.O_RDWR|os.O_CREATE|os.O_EXCL, 0o644)
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
	if err != nil {
		j.reset()
		return err
	}
	return syncDir(filepath.Dir(j.path))
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
