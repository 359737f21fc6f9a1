package store

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
)

func TestWALAppendReadRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal.log")
	w, err := OpenWAL(path, false)
	if err != nil {
		t.Fatal(err)
	}
	payloads := [][]byte{{1, 2, 3}, {}, []byte("hello"), bytes.Repeat([]byte{0xAB}, 4096)}
	for _, p := range payloads {
		if err := w.Append(p); err != nil {
			t.Fatal(err)
		}
	}
	got, err := w.ReadRecords()
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(payloads) {
		t.Fatalf("got %d records, want %d", len(got), len(payloads))
	}
	for i := range payloads {
		if !bytes.Equal(got[i], payloads[i]) {
			t.Fatalf("record %d mismatch", i)
		}
	}
	recs, bs := w.Stats()
	if recs != int64(len(payloads)) || bs <= 0 {
		t.Fatalf("stats = (%d, %d)", recs, bs)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	// Reopen: same records, and appends resume at the boundary.
	w2, err := OpenWAL(path, false)
	if err != nil {
		t.Fatal(err)
	}
	defer w2.Close()
	got, err = w2.ReadRecords()
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(payloads) {
		t.Fatalf("after reopen: got %d records, want %d", len(got), len(payloads))
	}
	if err := w2.Append([]byte("tail")); err != nil {
		t.Fatal(err)
	}
	got, err = w2.ReadRecords()
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(payloads)+1 || string(got[len(got)-1]) != "tail" {
		t.Fatalf("append after reopen lost: %d records", len(got))
	}
}

func TestWALTornTailTruncated(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal.log")
	w, err := OpenWAL(path, false)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range [][]byte{[]byte("one"), []byte("two"), []byte("three")} {
		if err := w.Append(p); err != nil {
			t.Fatal(err)
		}
	}
	w.Close()

	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	ends := WALRecordEnds(data)
	if len(ends) != 4 { // header + 3 records
		t.Fatalf("got %d boundaries, want 4", len(ends))
	}
	// Truncate mid-record (between boundary 2 and 3): the torn third
	// record must be dropped and the file cut back to the boundary.
	cut := ends[2] + (ends[3]-ends[2])/2
	if err := os.Truncate(path, cut); err != nil {
		t.Fatal(err)
	}
	w2, err := OpenWAL(path, false)
	if err != nil {
		t.Fatal(err)
	}
	defer w2.Close()
	got, err := w2.ReadRecords()
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || string(got[0]) != "one" || string(got[1]) != "two" {
		t.Fatalf("torn tail not dropped: %d records", len(got))
	}
	if fi, _ := os.Stat(path); fi.Size() != ends[2] {
		t.Fatalf("file not truncated to boundary: %d != %d", fi.Size(), ends[2])
	}
}

func TestWALTornHeaderRewritten(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal.log")
	w, err := OpenWAL(path, false)
	if err != nil {
		t.Fatal(err)
	}
	w.Append([]byte("x"))
	w.Close()
	// A crash can tear even the 8-byte header write.
	if err := os.Truncate(path, 3); err != nil {
		t.Fatal(err)
	}
	w2, err := OpenWAL(path, false)
	if err != nil {
		t.Fatal(err)
	}
	defer w2.Close()
	got, err := w2.ReadRecords()
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 0 {
		t.Fatalf("torn-header log should be empty, got %d records", len(got))
	}
	if err := w2.Append([]byte("fresh")); err != nil {
		t.Fatal(err)
	}
	if got, err = w2.ReadRecords(); err != nil || len(got) != 1 {
		t.Fatalf("append after header rewrite: %v, %d records", err, len(got))
	}
}

func TestWALWrongMagicRejected(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal.log")
	if err := os.WriteFile(path, []byte("notawal!"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenWAL(path, false); err == nil {
		t.Fatal("expected error opening non-WAL file")
	}
}

func TestWALResetCompacts(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal.log")
	w, err := OpenWAL(path, false)
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	for i := 0; i < 10; i++ {
		if err := w.Append(bytes.Repeat([]byte{byte(i)}, 100)); err != nil {
			t.Fatal(err)
		}
	}
	recsBefore, bytesBefore := w.Stats()
	if err := w.Reset([]byte("checkpoint")); err != nil {
		t.Fatal(err)
	}
	got, err := w.ReadRecords()
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || string(got[0]) != "checkpoint" {
		t.Fatalf("compacted log = %d records", len(got))
	}
	recsAfter, bytesAfter := w.Stats()
	if recsAfter <= recsBefore || bytesAfter <= bytesBefore {
		t.Fatalf("cumulative stats regressed: (%d,%d) -> (%d,%d)",
			recsBefore, bytesBefore, recsAfter, bytesAfter)
	}
	// Appends continue after the compaction swap.
	if err := w.Append([]byte("after")); err != nil {
		t.Fatal(err)
	}
	if got, err = w.ReadRecords(); err != nil || len(got) != 2 {
		t.Fatalf("append after reset: %v, %d records", err, len(got))
	}
}

func TestOpenDispatch(t *testing.T) {
	if _, err := Open("bogus", "", false); err == nil {
		t.Fatal("expected error for unknown kind")
	}
	s, err := Open("memory", "", false)
	if err != nil || s.Kind() != "memory" || s.Log() != nil {
		t.Fatalf("memory open: %v", err)
	}
	d, err := Open("disk", t.TempDir(), false)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	if d.Kind() != "disk" || d.Log() == nil {
		t.Fatal("disk store must expose a log")
	}
	if _, err := Open("disk", "", false); err == nil {
		t.Fatal("disk open without dir must fail")
	}
}

// TestDiskStoreWritesOnlyTheLog: the disk backend's directory holds the
// write-ahead log and nothing else.
func TestDiskStoreWritesOnlyTheLog(t *testing.T) {
	dir := t.TempDir()
	d, err := Open("disk", dir, false)
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Log().Append([]byte("x")); err != nil {
		t.Fatal(err)
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 || entries[0].Name() != "wal.log" {
		var names []string
		for _, e := range entries {
			names = append(names, e.Name())
		}
		t.Fatalf("disk store wrote %v, want only wal.log", names)
	}
}

// TestWALSyncOnlyWhenDirty: appends never sync; Sync fsyncs once per batch
// of new records and only with fsync on; Close syncs an unsynced tail.
func TestWALSyncOnlyWhenDirty(t *testing.T) {
	w, err := OpenWAL(filepath.Join(t.TempDir(), "wal.log"), true)
	if err != nil {
		t.Fatal(err)
	}
	sync := func(want int64) {
		t.Helper()
		if err := w.Sync(); err != nil {
			t.Fatal(err)
		}
		if w.syncs != want {
			t.Fatalf("syncs = %d, want %d", w.syncs, want)
		}
	}
	sync(0) // nothing written yet
	for i := 0; i < 5; i++ {
		if err := w.Append([]byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	if w.syncs != 0 {
		t.Fatalf("Append synced (%d syncs)", w.syncs)
	}
	sync(1)
	sync(1) // clean: no second fsync
	w.Append([]byte("tail"))
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if w.syncs != 2 {
		t.Fatalf("Close left the tail unsynced: %d syncs", w.syncs)
	}

	nosync, err := OpenWAL(filepath.Join(t.TempDir(), "wal.log"), false)
	if err != nil {
		t.Fatal(err)
	}
	defer nosync.Close()
	nosync.Append([]byte("x"))
	if err := nosync.Sync(); err != nil || nosync.syncs != 0 {
		t.Fatalf("fsync-off Sync: err=%v syncs=%d", err, nosync.syncs)
	}
}

// TestWALSyncReportsStickyWriteError: a failed append makes every later
// Sync fail, so a commit point cannot publish past a lost record.
func TestWALSyncReportsStickyWriteError(t *testing.T) {
	w, err := OpenWAL(filepath.Join(t.TempDir(), "wal.log"), false)
	if err != nil {
		t.Fatal(err)
	}
	w.f.Close() // the next write fails
	if err := w.Append([]byte("lost")); err == nil {
		t.Fatal("append to a closed file succeeded")
	}
	if err := w.Sync(); err == nil {
		t.Fatal("Sync after a failed append returned nil")
	}
}
