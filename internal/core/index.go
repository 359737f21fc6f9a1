package core

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/colog"
)

// idxRow is one bucket entry of a tableIndex: the visible row plus its
// arrival number. Buckets stay sorted by seq, so enumerating a bucket
// yields exactly the rows a snapshotStable scan would have yielded for the
// probed key, in the same order.
type idxRow struct {
	seq  uint64
	vals []colog.Value
}

// tableIndex is a hash index over a column subset, mapping the projected
// key to the visible rows carrying it. Indexes are created lazily the first
// time a join probes a column combination and maintained incrementally on
// every visible transition, so the cost is only paid for access paths the
// compiled plans actually use.
//
// Invariant: every bucket is sorted by row arrival number (seq). An index
// maintained through arbitrary insert/delete/replace churn is therefore
// byte-identical to one built fresh from snapshotStable — the property that
// lets both the delta pipeline and the streaming grounder probe the same
// persistent index without perturbing derivation arrival order (a restored
// node rebuilds its indexes from scratch; the recovery-equivalence gate
// pins that the rebuilt and the maintained index enumerate identically).
type tableIndex struct {
	cols []int
	m    map[string][]idxRow
}

func idxName(cols []int) string {
	parts := make([]string, len(cols))
	for i, c := range cols {
		parts[i] = fmt.Sprintf("%d", c)
	}
	return strings.Join(parts, ",")
}

func projKey(vals []colog.Value, cols []int) string {
	var dst []byte
	for i, c := range cols {
		if i > 0 {
			dst = append(dst, '|')
		}
		dst = vals[c].AppendKey(dst)
	}
	return string(dst)
}

// ensureIndex returns the index over cols, building it on first use. The
// returned index stays valid until the table drops its indexes (tracked by
// indexGen); the grounder holds the node lock for a whole solve, so a
// pointer obtained when a run is bound stays valid while it grounds.
func (t *table) ensureIndex(cols []int) *tableIndex {
	return t.ensureIndexNamed(idxName(cols), cols)
}

// ensureIndexNamed is ensureIndex with the cols key precomputed (compiled
// plan steps cache it to keep probes allocation-free). The build scans rows
// in arrival order — never the rows map, whose iteration order is
// randomized per run: bucket order decides join enumeration order, which
// decides derived-tuple arrival order and ultimately the solver's variable
// order, so a map-order build makes whole search traces nondeterministic
// (the cluster equivalence suites pin this). The bucket map is pre-sized
// from the table count: a hash-join build over n rows allocates its buckets
// once instead of rehashing log(n) times.
func (t *table) ensureIndexNamed(name string, cols []int) *tableIndex {
	if t.indexes == nil {
		t.indexes = map[string]*tableIndex{}
	}
	idx, ok := t.indexes[name]
	if !ok {
		idx = &tableIndex{cols: cols, m: make(map[string][]idxRow, t.size())}
		for _, r := range t.stableSeqRows() {
			k := projKey(r.vals, cols)
			idx.m[k] = append(idx.m[k], r)
		}
		t.indexes[name] = idx
	}
	return idx
}

// indexInsert registers a newly visible row in all existing indexes,
// keeping each bucket sorted by arrival number. Most inserts carry the
// highest seq so far and append; a delete/re-insert pair restoring a
// tombstoned seq (freedSeq) splices back into the row's old position.
func (t *table) indexInsert(vals []colog.Value, seq uint64) {
	for _, idx := range t.indexes {
		k := projKey(vals, idx.cols)
		rows := idx.m[k]
		i := len(rows)
		if i > 0 && rows[i-1].seq > seq {
			i = sort.Search(len(rows), func(j int) bool { return rows[j].seq > seq })
		}
		rows = append(rows, idxRow{})
		copy(rows[i+1:], rows[i:])
		rows[i] = idxRow{seq: seq, vals: vals}
		idx.m[k] = rows
	}
}

// indexRemove drops a no-longer-visible row from all existing indexes,
// preserving the arrival order of the surviving bucket entries.
func (t *table) indexRemove(vals []colog.Value) {
	for _, idx := range t.indexes {
		k := projKey(vals, idx.cols)
		rows := idx.m[k]
		for i := range rows {
			if valsEqual(rows[i].vals, vals) {
				rows = append(rows[:i], rows[i+1:]...)
				break
			}
		}
		if len(rows) == 0 {
			delete(idx.m, k)
		} else {
			idx.m[k] = rows
		}
	}
}

// dropIndexes invalidates all indexes (bulk table replacement). The
// generation bump invalidates index pointers cached on compiled plan steps.
func (t *table) dropIndexes() {
	t.indexes = nil
	t.indexGen++
}
