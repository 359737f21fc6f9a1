// Package store provides the pluggable per-node storage backend. Table rows
// always live in the engine's memory (internal/core owns them); a backend
// only decides whether the node also keeps a write-ahead delta log. The
// default backend writes no log (exactly the pre-storage behavior); the disk
// backend persists every visible node transition through a CRC-framed log
// (see wal.go), in the log-as-the-database style of LogBase: the log is the
// durable truth and the only file written, rows are an in-memory index
// rebuilt by replay, and a checkpoint is a log compaction.
package store

import (
	"fmt"
	"os"
	"path/filepath"

	"repro/internal/colog"
)

// Row is one stored fact with its bookkeeping: the arrival-order sequence
// number that drives deterministic enumeration, the derivation count, and
// the base (external) contribution count.
type Row struct {
	Seq   uint64
	Count int
	Base  int
	Vals  []colog.Value
}

// Store is one node's storage backend: for durable backends, the
// write-ahead delta log.
type Store interface {
	// Kind returns the backend name ("memory" or "disk").
	Kind() string
	// Log returns the write-ahead delta log, or nil for non-durable
	// backends. A nil log means the node neither writes nor replays.
	Log() *WAL
	// Close syncs and releases the log and reports any deferred I/O error.
	Close() error
}

// Open creates a storage backend by kind. The dir and fsync arguments only
// apply to the disk backend: dir is the node's private directory (created
// if missing), fsync makes every WAL.Sync (the engine's commit points) an
// fsync.
func Open(kind, dir string, fsync bool) (Store, error) {
	switch kind {
	case "", "memory":
		return NewMemory(), nil
	case "disk":
		return openDisk(dir, fsync)
	default:
		return nil, fmt.Errorf("store: unknown kind %q (want memory or disk)", kind)
	}
}

// memStore is the default backend: no log.
type memStore struct{}

// NewMemory returns the in-memory backend.
func NewMemory() Store { return memStore{} }

func (memStore) Kind() string { return "memory" }
func (memStore) Log() *WAL    { return nil }
func (memStore) Close() error { return nil }

// diskStore is the durable backend: one write-ahead delta log per node,
// wal.log under the node's private directory.
type diskStore struct{ wal *WAL }

func openDisk(dir string, fsync bool) (Store, error) {
	if dir == "" {
		return nil, fmt.Errorf("store: disk backend needs a directory")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	wal, err := OpenWAL(filepath.Join(dir, "wal.log"), fsync)
	if err != nil {
		return nil, err
	}
	return diskStore{wal: wal}, nil
}

func (s diskStore) Kind() string { return "disk" }
func (s diskStore) Log() *WAL    { return s.wal }
func (s diskStore) Close() error { return s.wal.Close() }
