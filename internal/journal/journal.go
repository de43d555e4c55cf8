// Package journal owns the durable-store file lifecycle shared by the
// cluster job journal (internal/cluster.JournalStore) and the
// online-learning sample log (internal/online.SampleLog): a directory
// holding an append-only journal and a snapshot that compaction replaces.
// Log is that lifecycle; the stores keep only their own state, lock,
// record type and durability policy.
//
// The journal line format is "<crc32 hex> <payload>\n" — one payload per
// line, checksummed so a torn or bit-flipped tail is detected on replay
// and truncated on open. The snapshot install is write-temp + fsync +
// rename + fsync-dir, so a crash mid-install leaves either the old or the
// new file, never a torn one. A crash after the install but before the
// journal truncate leaves the new snapshot next to the old journal, so a
// store's replay must treat journal lines the snapshot already holds as
// no-ops.
package journal

import (
	"bytes"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
)

// EncodeLine appends one "<crc32 hex> <payload>\n" journal line to buf and
// returns the extended buffer. The payload must not contain a newline
// (JSON-marshalled records never do).
func EncodeLine(buf, payload []byte) []byte {
	buf = append(buf, fmt.Sprintf("%08x ", crc32.ChecksumIEEE(payload))...)
	buf = append(buf, payload...)
	buf = append(buf, '\n')
	return buf
}

// DecodeLine validates one journal line (without its trailing newline) and
// returns its payload. ok is false for a malformed prefix or a CRC
// mismatch.
func DecodeLine(line []byte) (payload []byte, ok bool) {
	sp := bytes.IndexByte(line, ' ')
	if sp != 8 { // crc32 is always 8 hex digits
		return nil, false
	}
	var want uint32
	if _, err := fmt.Sscanf(string(line[:sp]), "%08x", &want); err != nil {
		return nil, false
	}
	payload = line[sp+1:]
	if crc32.ChecksumIEEE(payload) != want {
		return nil, false
	}
	return payload, true
}

// Scan walks journal bytes line by line, calling fn with each intact
// payload. The first malformed line — torn (no newline), bad CRC, or one
// fn rejects by returning false — ends the scan: everything after it is
// untrusted, since ordering is the journal's whole point. It returns the
// number of leading bytes consumed by accepted lines; callers truncate
// the file to that length to clear a torn tail. It is a pure function so
// fuzz targets can hammer it directly.
func Scan(data []byte, fn func(payload []byte) bool) (good int) {
	off := 0
	for off < len(data) {
		nl := bytes.IndexByte(data[off:], '\n')
		if nl < 0 {
			break // torn final line
		}
		payload, ok := DecodeLine(data[off : off+nl])
		if !ok || !fn(payload) {
			break
		}
		off += nl + 1
		good = off
	}
	return good
}

// WriteFileAtomic installs data at path atomically: write to a sibling
// temp file, fsync, rename over the target, fsync the directory. A crash
// at any point leaves either the previous file or the new one.
func WriteFileAtomic(path string, data []byte) error {
	tmp := path + ".tmp"
	f, err := os.OpenFile(tmp, os.O_CREATE|os.O_WRONLY|os.O_TRUNC, 0o644)
	if err != nil {
		return fmt.Errorf("journal: temp file: %w", err)
	}
	if _, err := f.Write(data); err != nil {
		f.Close()
		return fmt.Errorf("journal: writing %s: %w", tmp, err)
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return fmt.Errorf("journal: syncing %s: %w", tmp, err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("journal: closing %s: %w", tmp, err)
	}
	if err := os.Rename(tmp, path); err != nil {
		return fmt.Errorf("journal: installing %s: %w", path, err)
	}
	if err := SyncDir(filepath.Dir(path)); err != nil {
		return fmt.Errorf("journal: syncing dir of %s: %w", path, err)
	}
	return nil
}

// SyncDir fsyncs a directory so a rename inside it is durable.
func SyncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	defer d.Close()
	return d.Sync()
}

// Log is one store's journal and snapshot files. It has no lock of its
// own: the owning store calls it under the store's lock and decides when
// to Sync (every append, or at its own checkpoints) and when to Compact.
type Log struct {
	f        *os.File
	snapPath string
	closed   bool
}

// errClosed is returned by Append and Compact after Close.
var errClosed = errors.New("journal: log is closed")

// Open creates dir if needed and replays it: loadSnapshot gets the
// snapshot file's bytes (it is not called when there is no snapshot yet),
// then replay gets each intact journal payload in order, as in Scan. A
// torn or rejected journal tail is truncated so the next Append starts a
// clean line, and the journal is opened for appending.
func Open(dir, journalName, snapshotName string,
	loadSnapshot func(data []byte) error, replay func(payload []byte) bool) (*Log, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("journal: store dir: %w", err)
	}
	snapPath := filepath.Join(dir, snapshotName)
	if data, err := os.ReadFile(snapPath); err == nil {
		if err := loadSnapshot(data); err != nil {
			return nil, fmt.Errorf("journal: corrupt snapshot %s: %w", snapPath, err)
		}
	} else if !os.IsNotExist(err) {
		return nil, fmt.Errorf("journal: reading snapshot: %w", err)
	}

	jPath := filepath.Join(dir, journalName)
	data, err := os.ReadFile(jPath)
	if err != nil && !os.IsNotExist(err) {
		return nil, fmt.Errorf("journal: reading %s: %w", jPath, err)
	}
	if good := Scan(data, replay); good < len(data) {
		if err := os.Truncate(jPath, int64(good)); err != nil {
			return nil, fmt.Errorf("journal: truncating torn tail of %s: %w", jPath, err)
		}
	}
	f, err := os.OpenFile(jPath, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, fmt.Errorf("journal: opening %s: %w", jPath, err)
	}
	return &Log{f: f, snapPath: snapPath}, nil
}

// Append writes one journal line holding payload. It does not fsync: the
// store calls Sync when its durability policy says so.
func (l *Log) Append(payload []byte) error {
	if l.closed {
		return errClosed
	}
	_, err := l.f.Write(EncodeLine(nil, payload))
	return err
}

// Sync flushes appended lines to stable storage. After Close it is a no-op.
func (l *Log) Sync() error {
	if l.closed {
		return nil
	}
	return l.f.Sync()
}

// Compact installs snapshot atomically, then truncates and fsyncs the
// journal. If it fails before the install, both files are as they were;
// if it fails after, the store's replay skips what the snapshot holds.
func (l *Log) Compact(snapshot []byte) error {
	if l.closed {
		return errClosed
	}
	if err := WriteFileAtomic(l.snapPath, snapshot); err != nil {
		return err
	}
	if err := l.f.Truncate(0); err != nil {
		return fmt.Errorf("journal: truncating journal: %w", err)
	}
	if err := l.f.Sync(); err != nil {
		return fmt.Errorf("journal: syncing truncated journal: %w", err)
	}
	return nil
}

// Close releases the journal file without an fsync; Appends and Compacts
// fail from here on. Closing twice is fine.
func (l *Log) Close() error {
	if l.closed {
		return nil
	}
	l.closed = true
	return l.f.Close()
}
