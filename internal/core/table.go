package core

import (
	"sort"

	"repro/internal/colog"
	"repro/internal/store"
)

// table stores the visible rows of one predicate at one node, with
// derivation counts for incremental view maintenance. Tables follow
// declarative networking semantics:
//
//   - Materialized tables have an optional primary key (a subset of
//     columns). Inserting a row whose key exists with different values
//     replaces the old row, propagating a deletion delta first — this is
//     how Follow-the-Sun rule r3 updates curVm in place.
//   - Event tables (e.g. the solver's materialized migVm output) are never
//     stored: their deltas stream through the rules exactly once.
//
// Rows live in memory under whichever storage backend the node runs on;
// a durable backend logs the node's transitions (see internal/store), never
// the rows. The table keeps all ordering state (seq numbers, freed-seq
// tombstones, scan caches) itself, so enumeration order is a function of
// the update sequence alone.
type table struct {
	name     string
	arity    int
	keyCols  []int // nil = whole row is the key (set semantics)
	event    bool
	rows     map[string]store.Row // key -> row
	indexes  map[string]*tableIndex
	indexGen uint64 // bumped on dropIndexes; validates cached index pointers
	// keyScratch is reused for building row keys, so lookups and deletes
	// never allocate; only inserting a new row materializes the string.
	keyScratch []byte
	// stableCache memoizes the insertion-ordered visible-row list between
	// mutations (see snapshotStable); nextSeq numbers arrivals.
	stableCache [][]colog.Value
	nextSeq     uint64
	// freedSeq remembers the arrival number of deleted rows by key, so a
	// delete/re-insert pair — how the delta pipeline expresses an update —
	// puts the row back at its old position instead of the end. Bounded by
	// dropping the map when it dwarfs the live table.
	freedSeq map[string]uint64
}

// appendRowKey builds the row's primary key into dst.
func (t *table) appendRowKey(dst []byte, vals []colog.Value) []byte {
	if t.keyCols == nil {
		return appendValsKey(dst, vals)
	}
	for i, c := range t.keyCols {
		if i > 0 {
			dst = append(dst, '|')
		}
		dst = vals[c].AppendKey(dst)
	}
	return dst
}

func newTable(name string, arity int, keyCols []int, event bool) *table {
	return &table{name: name, arity: arity, keyCols: keyCols, event: event, rows: map[string]store.Row{}}
}

// delta is a pending tuple change with a sign (+1 insert, -1 delete).
// derived marks deltas produced by local rule evaluation (as opposed to
// external inserts, network deliveries, and solver materializations).
type delta struct {
	tuple   Tuple
	sign    int
	derived bool
}

// apply merges a signed tuple into the table and returns the visible-row
// transitions to propagate (at most two, in out[:n]): an insertion becomes
// visible only on a 0->1 count transition, a deletion only on 1->0, and a
// keyed replacement yields a deletion of the old row followed by the
// insertion of the new one. The fixed-size return keeps the delta hot path
// allocation-free.
func (t *table) apply(vals []colog.Value, sign int, derived bool) (out [2]delta, n int) {
	if t.event {
		if sign > 0 {
			out[0] = delta{Tuple{t.name, vals}, +1, derived}
			n = 1
		}
		return out, n
	}
	baseInc := 1
	if derived {
		baseInc = 0
	}
	t.keyScratch = t.appendRowKey(t.keyScratch[:0], vals)
	kb := t.keyScratch
	existing, exists := t.rows[string(kb)]
	if sign > 0 {
		var seq uint64
		if exists {
			if valsEqual(existing.Vals, vals) {
				// Count bump only: the stored values are untouched.
				existing.Count++
				existing.Base += baseInc
				t.rows[string(kb)] = existing
				return out, 0
			}
			// Keyed replacement: retract the old row first. The new row
			// inherits the old row's stable position.
			seq = existing.Seq
			out[n] = delta{Tuple{t.name, existing.Vals}, -1, derived}
			n++
			t.indexRemove(existing.Vals)
		} else if s, had := t.freedSeq[string(kb)]; had {
			seq = s
			delete(t.freedSeq, string(kb))
		} else {
			seq = t.nextSeq
			t.nextSeq++
		}
		// Derived tuples are freshly built by rule-head projection and
		// uniquely owned, so the row can adopt them; external inserts may
		// alias caller memory and are copied.
		stored := vals
		if !derived {
			stored = append([]colog.Value(nil), vals...)
		}
		t.rows[string(kb)] = store.Row{Vals: stored, Count: 1, Base: baseInc, Seq: seq}
		t.indexInsert(stored, seq)
		t.stableCache = nil
		out[n] = delta{Tuple{t.name, vals}, +1, derived}
		n++
		return out, n
	}
	// Deletion.
	if !exists || !valsEqual(existing.Vals, vals) {
		return out, 0 // deleting a non-existent row is a no-op
	}
	existing.Count--
	if existing.Base > 0 && baseInc > 0 {
		existing.Base--
	}
	if existing.Count <= 0 {
		delete(t.rows, string(kb))
		t.indexRemove(existing.Vals)
		t.stableCache = nil
		t.rememberSeq(string(kb), existing.Seq)
		out[0] = delta{Tuple{t.name, existing.Vals}, -1, derived}
		n = 1
	} else {
		t.rows[string(kb)] = existing
	}
	return out, n
}

// contains reports whether the exact row is visible.
func (t *table) contains(vals []colog.Value) bool {
	t.keyScratch = t.appendRowKey(t.keyScratch[:0], vals)
	r, ok := t.rows[string(t.keyScratch)]
	return ok && valsEqual(r.Vals, vals)
}

// snapshot returns the visible rows sorted deterministically.
func (t *table) snapshot() [][]colog.Value {
	out := make([][]colog.Value, 0, len(t.rows))
	for _, r := range t.rows {
		out = append(out, r.Vals)
	}
	sort.Slice(out, func(i, j int) bool {
		return valsKey(out[i]) < valsKey(out[j])
	})
	return out
}

// rememberSeq tombstones a deleted row's arrival number under its key.
func (t *table) rememberSeq(key string, seq uint64) {
	if t.freedSeq == nil {
		t.freedSeq = map[string]uint64{}
	}
	if len(t.freedSeq) > 4*len(t.rows)+4096 {
		t.freedSeq = map[string]uint64{} // runaway churn: forfeit stability
	}
	t.freedSeq[key] = seq
}

// snapshotStable returns the visible rows in arrival order: rows are
// numbered as they first become visible, and a keyed replacement keeps its
// predecessor's number. The grounder enumerates rows in this order — it is
// deterministic for a deterministic update sequence (like the sorted
// snapshot) but, unlike sorting by row content, it does not move a row when
// only its values change, which keeps incremental re-grounding's cached
// emission order identical to a fresh grounding's.
func (t *table) snapshotStable() [][]colog.Value {
	if t.stableCache == nil {
		rows := t.stableSeqRows()
		out := make([][]colog.Value, len(rows))
		for i, r := range rows {
			out[i] = r.vals
		}
		t.stableCache = out
	}
	return t.stableCache
}

// stableSeqRows returns the visible rows with their arrival numbers, sorted
// by seq: the enumeration an index build consumes, so freshly built buckets
// carry rows in exactly snapshotStable order.
func (t *table) stableSeqRows() []idxRow {
	rows := make([]idxRow, 0, len(t.rows))
	for _, r := range t.rows {
		rows = append(rows, idxRow{r.Seq, r.Vals})
	}
	sort.Slice(rows, func(i, j int) bool { return rows[i].seq < rows[j].seq })
	return rows
}

// size returns the number of visible rows.
func (t *table) size() int { return len(t.rows) }

// clear removes all rows without emitting deltas (used only for test setup
// and solver-output replacement where deltas are produced explicitly).
func (t *table) clear() {
	t.rows = map[string]store.Row{}
	t.dropIndexes()
	t.dropScanCache()
}

// dropScanCache invalidates the memoized scans (bulk row replacement).
func (t *table) dropScanCache() {
	t.stableCache = nil
}
