package store

// SyncCount returns how many fsyncs w has issued, for the commit-point tests
// that drive a serving node from outside the package.
func SyncCount(w *WAL) int64 {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.syncs
}

// Unsynced reports whether w holds records written since its last sync.
func Unsynced(w *WAL) bool {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.unsynced
}
