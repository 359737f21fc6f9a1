package core

// Versioned table-checkpoint codec. A checkpoint captures a node's entire
// evaluation state at a quiescent point (queue drained, no recompute
// pending) so RestoreNode can rebuild an instance that is byte-identical to
// the original — including every row's arrival-order seq number, which is
// what keeps a recovered node's join enumeration, derivation order, and
// solver traces aligned with a node that never failed. The layout is built
// from the primitives of codec.go and is fully deterministic (sorted
// sections, rows in seq order), so two checkpoints of identical states are
// byte-equal. Its grammar is in wal.go: the materialization and mirror
// sections use the same encoding as solve and resync records.

import (
	"encoding/binary"
	"fmt"
	"sort"

	"repro/internal/colog"
	"repro/internal/store"
)

const checkpointVersion = 1

// ExportCheckpoint serializes the node's state: all non-event tables (rows
// with seq, visibility count, and base count, plus the seq allocator and
// the freed-seq tombstones), the incremental aggregate views, the solver
// materialization memory, and both replica mirrors. It fails if evaluation
// is in progress.
func (n *Node) ExportCheckpoint() ([]byte, error) {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.exportCheckpointLocked()
}

// CheckpointAndCompact exports a checkpoint and — when the node has a
// durable delta log — compacts the log down to a single checkpoint record,
// truncating the replayable prefix. The export and the log reset happen
// under one hold of the node lock, so no transition can land between the
// exported state and the truncated log (which would make replay skip it).
func (n *Node) CheckpointAndCompact() ([]byte, error) {
	n.mu.Lock()
	defer n.mu.Unlock()
	data, err := n.exportCheckpointLocked()
	if err != nil || n.wal == nil {
		return data, err
	}
	rec := make([]byte, 0, len(data)+1)
	rec = append(rec, walRecCheckpoint)
	rec = append(rec, data...)
	if err := n.wal.Reset(rec); err != nil {
		return data, fmt.Errorf("core: compacting log of %s: %w", n.Addr, err)
	}
	return data, nil
}

func (n *Node) exportCheckpointLocked() ([]byte, error) {
	if n.draining || n.qhead < len(n.queue) || len(n.dirtyGroups) > 0 {
		return nil, fmt.Errorf("core: checkpoint of %s: evaluation in progress", n.Addr)
	}
	fail := func(err error) ([]byte, error) {
		return nil, fmt.Errorf("core: checkpoint of %s: %w", n.Addr, err)
	}
	buf := []byte{checkpointVersion}
	var err error

	// Tables.
	var names []string
	for name, t := range n.tables {
		if !t.event {
			names = append(names, name)
		}
	}
	sort.Strings(names)
	buf = binary.AppendUvarint(buf, uint64(len(names)))
	for _, name := range names {
		t := n.tables[name]
		buf = AppendWireString(buf, name)
		buf = binary.AppendUvarint(buf, uint64(t.arity))
		buf = binary.AppendUvarint(buf, t.nextSeq)
		rows := make([]store.Row, 0, len(t.rows))
		for _, r := range t.rows {
			rows = append(rows, r)
		}
		sort.Slice(rows, func(i, j int) bool { return rows[i].Seq < rows[j].Seq })
		buf = binary.AppendUvarint(buf, uint64(len(rows)))
		for _, r := range rows {
			buf = binary.AppendUvarint(buf, r.Seq)
			buf = binary.AppendUvarint(buf, uint64(r.Count))
			buf = binary.AppendUvarint(buf, uint64(r.Base))
			if buf, err = AppendWireValues(buf, r.Vals); err != nil {
				return fail(fmt.Errorf("table %s: %w", name, err))
			}
		}
		freed := make([]string, 0, len(t.freedSeq))
		for k := range t.freedSeq {
			freed = append(freed, k)
		}
		sort.Strings(freed)
		buf = binary.AppendUvarint(buf, uint64(len(freed)))
		for _, k := range freed {
			buf = AppendWireString(buf, k)
			buf = binary.AppendUvarint(buf, t.freedSeq[k])
		}
	}

	// Aggregate views.
	var ruleIdxs []int
	for idx, st := range n.aggs {
		if len(st.groups) > 0 {
			ruleIdxs = append(ruleIdxs, idx)
		}
	}
	sort.Ints(ruleIdxs)
	buf = binary.AppendUvarint(buf, uint64(len(ruleIdxs)))
	for _, idx := range ruleIdxs {
		st := n.aggs[idx]
		buf = binary.AppendUvarint(buf, uint64(idx))
		buf = append(buf, byte(st.fn))
		gkeys := make([]string, 0, len(st.groups))
		for k := range st.groups {
			gkeys = append(gkeys, k)
		}
		sort.Strings(gkeys)
		buf = binary.AppendUvarint(buf, uint64(len(gkeys)))
		for _, gk := range gkeys {
			g := st.groups[gk]
			if buf, err = AppendWireValues(buf, g.groupVals); err == nil {
				buf, err = appendOptTuple(buf, g.emitted)
			}
			if err != nil {
				return fail(fmt.Errorf("aggregate group: %w", err))
			}
			ikeys := make([]string, 0, len(g.items))
			for k := range g.items {
				ikeys = append(ikeys, k)
			}
			sort.Strings(ikeys)
			buf = binary.AppendUvarint(buf, uint64(len(ikeys)))
			for _, ik := range ikeys {
				it := g.items[ik]
				if buf, err = AppendWireValues(buf, []colog.Value{it.val}); err != nil {
					return fail(fmt.Errorf("aggregate item: %w", err))
				}
				buf = binary.AppendUvarint(buf, uint64(it.count))
			}
		}
	}

	// Solver materialization memory, encoded as a solve record's tables.
	var mats []matTable
	for pred, tuples := range n.lastMaterialized {
		if len(tuples) > 0 {
			mats = append(mats, matTable{pred: pred, tuples: tuples})
		}
	}
	sort.Slice(mats, func(i, j int) bool { return mats[i].pred < mats[j].pred })
	if buf, err = appendTuples(buf, mats); err != nil {
		return fail(fmt.Errorf("materialization %w", err))
	}

	// Replica mirrors (sent, then recv), each peer's encoded as a resync
	// record's mirrors.
	for _, mirrors := range []map[string]map[string]*mirrorSet{n.repl.sent, n.repl.recv} {
		var peers []string
		for peer := range mirrors {
			peers = append(peers, peer)
		}
		sort.Strings(peers)
		buf = binary.AppendUvarint(buf, uint64(len(peers)))
		for _, peer := range peers {
			preds := sortedMirrorPreds(mirrors[peer])
			sets := make([]*mirrorSet, len(preds))
			for i, pred := range preds {
				sets[i] = mirrors[peer][pred]
			}
			if buf, err = appendMirrors(AppendWireString(buf, peer), preds, sets); err != nil {
				return fail(err)
			}
		}
	}
	return buf, nil
}

// ImportCheckpoint replaces the node's state with a checkpoint exported by
// ExportCheckpoint for the same program. All current rows, aggregate views,
// mirrors, and cached grounding state are discarded; nothing is derived and
// nothing is sent — the checkpoint is already a fixpoint.
func (n *Node) ImportCheckpoint(data []byte) error {
	n.mu.Lock()
	defer n.mu.Unlock()
	fail := func(err error) error {
		return fmt.Errorf("core: importing checkpoint at %s: %w", n.Addr, err)
	}
	if len(data) == 0 || data[0] != checkpointVersion {
		return fail(fmt.Errorf("malformed header"))
	}
	d := dec{b: data[1:]}

	// Reset every table and the derived runtime state.
	for _, t := range n.tables {
		t.rows = map[string]store.Row{}
		t.nextSeq = 0
		t.freedSeq = nil
		t.dropIndexes()
		t.dropScanCache()
	}
	n.aggs = map[int]*aggState{}
	n.lastMaterialized = map[string][]Tuple{}
	n.repl.init()
	n.queue = n.queue[:0]
	n.qhead = 0
	n.outbox = nil
	n.dirtyGroups = map[int]bool{}
	n.ground = nil
	n.groundDeltas = nil
	n.LastSolveResult = nil

	// Tables.
	for i, nt := 0, d.count("table count"); i < nt && d.err == nil; i++ {
		name := d.str("table name")
		arity := d.uvarint("arity")
		t := n.tables[name]
		if d.err != nil {
			break
		}
		if t == nil {
			return fail(fmt.Errorf("unknown table %s (program mismatch?)", name))
		}
		if arity != uint64(t.arity) {
			return fail(fmt.Errorf("table %s arity %d, checkpoint has %d", name, t.arity, arity))
		}
		t.nextSeq = d.uvarint("next seq")
		var prev uint64
		for j, nr := 0, d.count("row count"); j < nr && d.err == nil; j++ {
			// Rows are exported in seq order, and live seqs are unique.
			seq := d.uvarint("row seq")
			if j > 0 && seq <= prev {
				d.fail("row seq")
			}
			prev = seq
			count := d.uvarint("row visibility count")
			base := d.uvarint("row base count")
			vals := d.vals("row values")
			if d.err != nil || len(vals) != t.arity {
				d.fail("row values")
				break
			}
			t.keyScratch = t.appendRowKey(t.keyScratch[:0], vals)
			t.rows[string(t.keyScratch)] = store.Row{Vals: vals, Count: int(count), Base: int(base), Seq: seq}
		}
		for j, nf := 0, d.count("freed-seq count"); j < nf && d.err == nil; j++ {
			if t.freedSeq == nil {
				t.freedSeq = map[string]uint64{}
			}
			key := d.str("freed-seq key")
			t.freedSeq[key] = d.uvarint("freed-seq value")
		}
	}

	// Aggregate views.
	for i, na := 0, d.count("aggregate count"); i < na && d.err == nil; i++ {
		ruleIdx := int(d.uvarint("aggregate rule index"))
		st := &aggState{fn: colog.AggFunc(d.byte("aggregate function")), groups: map[string]*aggGroup{}}
		for j, ng := 0, d.count("aggregate group count"); j < ng && d.err == nil; j++ {
			g := &aggGroup{groupVals: d.vals("aggregate group key"), items: map[string]*aggItem{}, intOnly: true}
			g.emitted = d.optTuple()
			for k, ni := 0, d.count("aggregate item count"); k < ni && d.err == nil; k++ {
				vals := d.vals("aggregate item value")
				count := int(d.uvarint("aggregate item multiplicity"))
				if d.err != nil || len(vals) != 1 {
					d.fail("aggregate item value")
					break
				}
				v := vals[0]
				g.items[string(v.AppendKey(nil))] = &aggItem{val: v, count: count}
				g.total += count
				if v.Kind == colog.KindInt {
					a := v.I
					if a < 0 {
						a = -a
					}
					g.sumI += v.I * int64(count)
					g.sumAbsI += a * int64(count)
				} else {
					g.intOnly = false
				}
			}
			st.groups[valsKey(g.groupVals)] = g
		}
		n.aggs[ruleIdx] = st
	}

	// Solver materialization memory.
	for _, mt := range d.tuples() {
		n.lastMaterialized[mt.pred] = mt.tuples
	}

	// Replica mirrors.
	for _, mirrors := range []map[string]map[string]*mirrorSet{n.repl.sent, n.repl.recv} {
		for i, np := 0, d.count("mirror peer count"); i < np && d.err == nil; i++ {
			peer := d.str("mirror peer")
			preds, sets := d.mirrors()
			if mirrors[peer] == nil {
				mirrors[peer] = map[string]*mirrorSet{}
			}
			for j, pred := range preds {
				mirrors[peer][pred] = sets[j]
			}
		}
	}
	if err := d.end(); err != nil {
		return fail(err)
	}
	return nil
}
