package store

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"os"
	"sync"
)

// WAL file layout:
//
//	header:  8 bytes — magic "CLGWAL\x00" + 1 version byte
//	record:  [u32 LE payload length][u32 LE CRC-32 (IEEE) of payload][payload]
//
// Records are framed, not self-describing: the engine owns the payload
// format (see internal/core/wal.go). Appends go through WriteAt at the
// tracked end offset, so a reader that truncated the file out from under
// the writer (the torture suite does exactly that) cannot make the writer
// extend a corrupt tail — ReadRecords re-reads the file, keeps the longest
// valid prefix, truncates the torn remainder, and resets the write offset.
const (
	walVersion    = 1
	walHeaderSize = 8
	recHeaderSize = 8

	// WALHeaderSize is the exported size of the log file header (magic +
	// version byte) — the offset of the first record frame. The torture
	// suite uses it to distinguish an empty-but-valid log from real records.
	WALHeaderSize = walHeaderSize

	// maxWALRecord is a sanity cap on a single record's payload; the
	// biggest legitimate record is a checkpoint, far below this.
	maxWALRecord = 1 << 26
)

var walMagic = [walHeaderSize]byte{'C', 'L', 'G', 'W', 'A', 'L', 0, walVersion}

// WAL is an append-only write-ahead delta log. It is safe for concurrent
// use; the engine appends under the node lock but stats readers and the
// torture harness poke at it from outside.
//
// Appends are plain writes; durability comes from Sync, which the engine
// calls at its commit points (before a decision or a message leaves the
// node), so a serving tick's records share one fsync — LogBase's group
// commit with the tick as the group.
type WAL struct {
	mu       sync.Mutex
	path     string
	f        *os.File
	size     int64 // tracked end offset of the valid prefix
	fsync    bool
	unsynced bool   // records written since the last Sync
	frame    []byte // reused frame buffer
	err      error  // sticky I/O error; appends and syncs fail fast once set

	// Cumulative counters, monotone across Reset (compaction) so the
	// cluster's per-epoch log deltas never go negative.
	records int64
	bytes   int64
	syncs   int64 // fsyncs issued by Sync and Close
}

// maxRetainedFrame bounds the frame buffer kept between appends, so one
// large resync record does not pin its size for the log's lifetime.
const maxRetainedFrame = 64 << 10

// OpenWAL opens (creating if needed) the log at path. A fresh or
// header-torn file gets a clean header; an existing log is scanned and any
// torn tail is truncated away, so the writer always resumes at a record
// boundary. With fsync set, Sync, Reset and Close fsync the file.
func OpenWAL(path string, fsync bool) (*WAL, error) {
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, err
	}
	w := &WAL{path: path, f: f, fsync: fsync}
	if _, err := w.ReadRecords(); err != nil {
		f.Close()
		return nil, err
	}
	return w, nil
}

// Append writes one record at the tracked end offset. It does not sync:
// the record is durable once a later Sync (or Close) returns. The payload
// is copied into the frame before writing; the caller keeps ownership.
func (w *WAL) Append(payload []byte) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.err != nil {
		return w.err
	}
	if len(payload) > maxWALRecord {
		return fmt.Errorf("store: WAL record of %d bytes exceeds cap", len(payload))
	}
	frame := binary.LittleEndian.AppendUint32(w.frame[:0], uint32(len(payload)))
	frame = binary.LittleEndian.AppendUint32(frame, crc32.ChecksumIEEE(payload))
	frame = append(frame, payload...)
	if cap(frame) <= maxRetainedFrame {
		w.frame = frame
	}
	if _, err := w.f.WriteAt(frame, w.size); err != nil {
		w.err = err
		return err
	}
	w.unsynced = true
	w.size += int64(len(frame))
	w.records++
	w.bytes += int64(len(frame))
	return nil
}

// Sync makes every appended record durable: it fsyncs if records were
// written since the last sync and the log was opened with fsync. It
// reports the sticky error of any earlier failed write or sync, so a
// caller that syncs before publishing learns of every lost record.
func (w *WAL) Sync() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.syncLocked()
}

func (w *WAL) syncLocked() error {
	if w.err != nil {
		return w.err
	}
	if !w.unsynced || !w.fsync {
		return nil
	}
	if err := w.f.Sync(); err != nil {
		w.err = err
		return err
	}
	w.unsynced = false
	w.syncs++
	return nil
}

// ReadRecords re-reads the log from disk and returns the payloads of the
// longest valid record prefix, truncating any torn tail (a partial frame or
// one whose CRC mismatches) and resetting the write offset to the boundary.
// A file shorter than the header that is a prefix of the expected header is
// treated as an empty log and rewritten; a wrong magic is an error.
func (w *WAL) ReadRecords() ([][]byte, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	data, err := os.ReadFile(w.path)
	if err != nil {
		return nil, err
	}
	if len(data) < walHeaderSize {
		if !bytes.Equal(data, walMagic[:len(data)]) {
			return nil, fmt.Errorf("store: %s: not a WAL file", w.path)
		}
		if err := w.f.Truncate(0); err != nil {
			return nil, err
		}
		if _, err := w.f.WriteAt(walMagic[:], 0); err != nil {
			return nil, err
		}
		w.size = walHeaderSize
		return nil, nil
	}
	if !bytes.Equal(data[:walHeaderSize], walMagic[:]) {
		return nil, fmt.Errorf("store: %s: bad WAL magic or version", w.path)
	}
	recs, valid := ScanWAL(data)
	if valid < int64(len(data)) {
		if err := w.f.Truncate(valid); err != nil {
			return nil, err
		}
	}
	w.size = valid
	return recs, nil
}

// Reset atomically replaces the log's contents with the given records —
// the compaction primitive: the engine passes a single checkpoint record
// and the replayable prefix before it is gone. Implemented as write to a
// temp file + rename so a crash mid-compaction leaves either the old log
// or the new one, never a hybrid. The new log is synced before the rename
// (with fsync), which supersedes any unsynced tail of the old one. The
// cumulative counters keep counting.
func (w *WAL) Reset(payloads ...[]byte) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.err != nil {
		return w.err
	}
	data := EncodeWALRecords(payloads)
	tmp := w.path + ".tmp"
	f, err := os.OpenFile(tmp, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(data); err != nil {
		f.Close()
		return err
	}
	if w.fsync {
		if err := f.Sync(); err != nil {
			f.Close()
			return err
		}
	}
	if err := f.Close(); err != nil {
		return err
	}
	if err := os.Rename(tmp, w.path); err != nil {
		return err
	}
	old := w.f
	nf, err := os.OpenFile(w.path, os.O_RDWR, 0o644)
	if err != nil {
		w.err = err
		return err
	}
	old.Close()
	w.f = nf
	w.unsynced = false
	w.size = int64(len(data))
	w.records += int64(len(payloads))
	w.bytes += int64(len(data) - walHeaderSize)
	return nil
}

// Stats returns the cumulative appended record and byte counts (monotone
// across compactions).
func (w *WAL) Stats() (records, bytes int64) {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.records, w.bytes
}

// Path returns the log file's path.
func (w *WAL) Path() string { return w.path }

// Close syncs any unsynced tail, releases the file handle, and reports the
// first sticky write or sync error.
func (w *WAL) Close() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	serr := w.syncLocked()
	cerr := w.f.Close()
	if serr != nil {
		return serr
	}
	return cerr
}

// EncodeWALRecords renders a complete log image — header plus one frame
// per payload — as the bytes ReadRecords would accept.
func EncodeWALRecords(payloads [][]byte) []byte {
	n := walHeaderSize
	for _, p := range payloads {
		n += recHeaderSize + len(p)
	}
	data := make([]byte, walHeaderSize, n)
	copy(data, walMagic[:])
	for _, p := range payloads {
		var hdr [recHeaderSize]byte
		binary.LittleEndian.PutUint32(hdr[:], uint32(len(p)))
		binary.LittleEndian.PutUint32(hdr[4:], crc32.ChecksumIEEE(p))
		data = append(data, hdr[:]...)
		data = append(data, p...)
	}
	return data
}

// DecodeWALRecords strictly decodes a complete log image: a bad magic,
// unknown version, oversized or truncated length, CRC mismatch, or
// trailing garbage is an error, never a panic. The torture suite and the
// fuzz target use this; the engine's recovery path uses the lenient
// ReadRecords/ScanWAL instead.
func DecodeWALRecords(data []byte) ([][]byte, error) {
	if len(data) < walHeaderSize || !bytes.Equal(data[:walHeaderSize], walMagic[:]) {
		return nil, fmt.Errorf("store: bad WAL magic or version")
	}
	var recs [][]byte
	rest := data[walHeaderSize:]
	for len(rest) > 0 {
		if len(rest) < recHeaderSize {
			return nil, fmt.Errorf("store: torn WAL record header")
		}
		n := binary.LittleEndian.Uint32(rest)
		sum := binary.LittleEndian.Uint32(rest[4:])
		if n > maxWALRecord || uint64(n) > uint64(len(rest)-recHeaderSize) {
			return nil, fmt.Errorf("store: WAL record length %d out of range", n)
		}
		payload := rest[recHeaderSize : recHeaderSize+int(n)]
		if crc32.ChecksumIEEE(payload) != sum {
			return nil, fmt.Errorf("store: WAL record CRC mismatch")
		}
		recs = append(recs, payload)
		rest = rest[recHeaderSize+int(n):]
	}
	return recs, nil
}

// ScanWAL leniently scans a log image, returning the payloads of the
// longest valid record prefix and the byte offset where that prefix ends
// (the truncation point for a torn tail). The caller must have verified
// the header; a short or headerless image scans to offset 0.
func ScanWAL(data []byte) ([][]byte, int64) {
	if len(data) < walHeaderSize || !bytes.Equal(data[:walHeaderSize], walMagic[:]) {
		return nil, 0
	}
	var recs [][]byte
	off := int64(walHeaderSize)
	for {
		rest := data[off:]
		if len(rest) < recHeaderSize {
			return recs, off
		}
		n := binary.LittleEndian.Uint32(rest)
		sum := binary.LittleEndian.Uint32(rest[4:])
		if n > maxWALRecord || uint64(n) > uint64(len(rest)-recHeaderSize) {
			return recs, off
		}
		payload := rest[recHeaderSize : recHeaderSize+int(n)]
		if crc32.ChecksumIEEE(payload) != sum {
			return recs, off
		}
		recs = append(recs, payload)
		off += int64(recHeaderSize) + int64(n)
	}
}

// WALRecordEnds returns the offsets of every record boundary in the valid
// prefix of a log image: the header end first, then the end of each
// record. The torture suite truncates a recorded log at (and between)
// these offsets to simulate crashes at every append boundary.
func WALRecordEnds(data []byte) []int64 {
	if len(data) < walHeaderSize || !bytes.Equal(data[:walHeaderSize], walMagic[:]) {
		return nil
	}
	ends := []int64{walHeaderSize}
	off := int64(walHeaderSize)
	for {
		rest := data[off:]
		if len(rest) < recHeaderSize {
			return ends
		}
		n := binary.LittleEndian.Uint32(rest)
		sum := binary.LittleEndian.Uint32(rest[4:])
		if n > maxWALRecord || uint64(n) > uint64(len(rest)-recHeaderSize) {
			return ends
		}
		payload := rest[recHeaderSize : recHeaderSize+int(n)]
		if crc32.ChecksumIEEE(payload) != sum {
			return ends
		}
		off += int64(recHeaderSize) + int64(n)
		ends = append(ends, off)
	}
}
