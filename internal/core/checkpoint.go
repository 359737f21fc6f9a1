package core

// Versioned table-checkpoint codec. A checkpoint captures a node's entire
// evaluation state at a quiescent point (queue drained, no recompute
// pending) so RestoreNode can rebuild an instance that is byte-identical to
// the original — including every row's arrival-order seq number, which is
// what keeps a recovered node's join enumeration, derivation order, and
// solver traces aligned with a node that never failed. The layout reuses
// the varint wire primitives of the delta codec (tuple.go) and is fully
// deterministic (sorted sections, rows in seq order), so two checkpoints of
// identical states are byte-equal.

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
		buf = appendWireString(buf, name)
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
			if buf, err = appendWireVals(buf, r.Vals); err != nil {
				return nil, fmt.Errorf("core: checkpoint of %s: table %s: %w", n.Addr, name, err)
			}
		}
		freed := make([]string, 0, len(t.freedSeq))
		for k := range t.freedSeq {
			freed = append(freed, k)
		}
		sort.Strings(freed)
		buf = binary.AppendUvarint(buf, uint64(len(freed)))
		for _, k := range freed {
			buf = appendWireString(buf, k)
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
			if buf, err = appendWireVals(buf, g.groupVals); err != nil {
				return nil, fmt.Errorf("core: checkpoint of %s: aggregate group: %w", n.Addr, err)
			}
			if g.emitted != nil {
				buf = append(buf, 1)
				buf = appendWireString(buf, g.emitted.Pred)
				if buf, err = appendWireVals(buf, g.emitted.Vals); err != nil {
					return nil, fmt.Errorf("core: checkpoint of %s: aggregate head: %w", n.Addr, err)
				}
			} else {
				buf = append(buf, 0)
			}
			ikeys := make([]string, 0, len(g.items))
			for k := range g.items {
				ikeys = append(ikeys, k)
			}
			sort.Strings(ikeys)
			buf = binary.AppendUvarint(buf, uint64(len(ikeys)))
			for _, ik := range ikeys {
				it := g.items[ik]
				if buf, err = appendWireVals(buf, []colog.Value{it.val}); err != nil {
					return nil, fmt.Errorf("core: checkpoint of %s: aggregate item: %w", n.Addr, err)
				}
				buf = binary.AppendUvarint(buf, uint64(it.count))
			}
		}
	}

	// Solver materialization memory.
	var mpreds []string
	for pred, tuples := range n.lastMaterialized {
		if len(tuples) > 0 {
			mpreds = append(mpreds, pred)
		}
	}
	sort.Strings(mpreds)
	buf = binary.AppendUvarint(buf, uint64(len(mpreds)))
	for _, pred := range mpreds {
		tuples := n.lastMaterialized[pred]
		buf = appendWireString(buf, pred)
		buf = binary.AppendUvarint(buf, uint64(len(tuples)))
		for _, t := range tuples {
			if buf, err = appendWireVals(buf, t.Vals); err != nil {
				return nil, fmt.Errorf("core: checkpoint of %s: materialization %s: %w", n.Addr, pred, err)
			}
		}
	}

	// Replica mirrors (sent, then recv).
	for _, mirrors := range []map[string]map[string]*mirrorSet{n.repl.sent, n.repl.recv} {
		var peers []string
		for peer := range mirrors {
			peers = append(peers, peer)
		}
		sort.Strings(peers)
		buf = binary.AppendUvarint(buf, uint64(len(peers)))
		for _, peer := range peers {
			byPred := mirrors[peer]
			buf = appendWireString(buf, peer)
			preds := sortedMirrorPreds(byPred)
			buf = binary.AppendUvarint(buf, uint64(len(preds)))
			for _, pred := range preds {
				ms := byPred[pred]
				buf = appendWireString(buf, pred)
				buf = binary.AppendUvarint(buf, uint64(ms.live))
				for _, e := range ms.entries {
					if e.count <= 0 {
						continue
					}
					buf = binary.AppendUvarint(buf, uint64(e.count))
					if buf, err = appendWireVals(buf, e.vals); err != nil {
						return nil, fmt.Errorf("core: checkpoint of %s: mirror %s: %w", n.Addr, pred, err)
					}
				}
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
	fail := func(what string) error {
		return fmt.Errorf("core: importing checkpoint at %s: malformed %s", n.Addr, what)
	}
	if len(data) == 0 || data[0] != checkpointVersion {
		return fail("header")
	}
	rest := data[1:]

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
	nTables, w := binary.Uvarint(rest)
	if w <= 0 {
		return fail("table count")
	}
	rest = rest[w:]
	for i := uint64(0); i < nTables; i++ {
		name, r, ok := readWireString(rest)
		if !ok {
			return fail("table name")
		}
		rest = r
		t := n.tables[name]
		if t == nil {
			return fmt.Errorf("core: importing checkpoint at %s: unknown table %s (program mismatch?)", n.Addr, name)
		}
		arity, w := binary.Uvarint(rest)
		if w <= 0 {
			return fail("arity")
		}
		rest = rest[w:]
		if int(arity) != t.arity {
			return fmt.Errorf("core: importing checkpoint at %s: table %s arity %d, checkpoint has %d", n.Addr, name, t.arity, arity)
		}
		if t.nextSeq, w = binary.Uvarint(rest); w <= 0 {
			return fail("next seq")
		}
		rest = rest[w:]
		nRows, w := binary.Uvarint(rest)
		if w <= 0 {
			return fail("row count")
		}
		rest = rest[w:]
		for j := uint64(0); j < nRows; j++ {
			seq, w := binary.Uvarint(rest)
			if w <= 0 {
				return fail("row seq")
			}
			rest = rest[w:]
			count, w := binary.Uvarint(rest)
			if w <= 0 {
				return fail("row visibility count")
			}
			rest = rest[w:]
			base, w := binary.Uvarint(rest)
			if w <= 0 {
				return fail("row base count")
			}
			rest = rest[w:]
			vals, r, err := readWireVals(rest)
			if err != nil {
				return fail("row values")
			}
			rest = r
			if len(vals) != t.arity {
				return fail("row arity")
			}
			t.keyScratch = t.appendRowKey(t.keyScratch[:0], vals)
			t.rows[string(t.keyScratch)] = store.Row{Vals: vals, Count: int(count), Base: int(base), Seq: seq}
		}
		nFreed, w := binary.Uvarint(rest)
		if w <= 0 {
			return fail("freed-seq count")
		}
		rest = rest[w:]
		for j := uint64(0); j < nFreed; j++ {
			key, r, ok := readWireString(rest)
			if !ok {
				return fail("freed-seq key")
			}
			rest = r
			seq, w := binary.Uvarint(rest)
			if w <= 0 {
				return fail("freed-seq value")
			}
			rest = rest[w:]
			if t.freedSeq == nil {
				t.freedSeq = map[string]uint64{}
			}
			t.freedSeq[key] = seq
		}
	}

	// Aggregate views.
	nAggs, w := binary.Uvarint(rest)
	if w <= 0 {
		return fail("aggregate count")
	}
	rest = rest[w:]
	for i := uint64(0); i < nAggs; i++ {
		ruleIdx, w := binary.Uvarint(rest)
		if w <= 0 {
			return fail("aggregate rule index")
		}
		rest = rest[w:]
		if len(rest) == 0 {
			return fail("aggregate function")
		}
		st := &aggState{fn: colog.AggFunc(rest[0]), groups: map[string]*aggGroup{}}
		rest = rest[1:]
		nGroups, w := binary.Uvarint(rest)
		if w <= 0 {
			return fail("aggregate group count")
		}
		rest = rest[w:]
		for j := uint64(0); j < nGroups; j++ {
			groupVals, r, err := readWireVals(rest)
			if err != nil {
				return fail("aggregate group key")
			}
			rest = r
			g := &aggGroup{groupVals: groupVals, items: map[string]*aggItem{}, intOnly: true}
			if len(rest) == 0 {
				return fail("aggregate emitted flag")
			}
			hasEmitted := rest[0] != 0
			rest = rest[1:]
			if hasEmitted {
				pred, r, ok := readWireString(rest)
				if !ok {
					return fail("aggregate emitted predicate")
				}
				rest = r
				vals, r2, err := readWireVals(rest)
				if err != nil {
					return fail("aggregate emitted values")
				}
				rest = r2
				t := Tuple{pred, vals}
				g.emitted = &t
			}
			nItems, w := binary.Uvarint(rest)
			if w <= 0 {
				return fail("aggregate item count")
			}
			rest = rest[w:]
			for k := uint64(0); k < nItems; k++ {
				vals, r, err := readWireVals(rest)
				if err != nil || len(vals) != 1 {
					return fail("aggregate item value")
				}
				rest = r
				count, w := binary.Uvarint(rest)
				if w <= 0 {
					return fail("aggregate item multiplicity")
				}
				rest = rest[w:]
				v := vals[0]
				g.items[string(v.AppendKey(nil))] = &aggItem{val: v, count: int(count)}
				g.total += int(count)
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
			st.groups[valsKey(groupVals)] = g
		}
		n.aggs[int(ruleIdx)] = st
	}

	// Solver materialization memory.
	nMat, w := binary.Uvarint(rest)
	if w <= 0 {
		return fail("materialization count")
	}
	rest = rest[w:]
	for i := uint64(0); i < nMat; i++ {
		pred, r, ok := readWireString(rest)
		if !ok {
			return fail("materialization predicate")
		}
		rest = r
		nTuples, w := binary.Uvarint(rest)
		if w <= 0 {
			return fail("materialization tuple count")
		}
		rest = rest[w:]
		tuples := make([]Tuple, 0, nTuples)
		for j := uint64(0); j < nTuples; j++ {
			vals, r, err := readWireVals(rest)
			if err != nil {
				return fail("materialization values")
			}
			rest = r
			tuples = append(tuples, Tuple{pred, vals})
		}
		n.lastMaterialized[pred] = tuples
	}

	// Replica mirrors.
	for _, mirrors := range []map[string]map[string]*mirrorSet{n.repl.sent, n.repl.recv} {
		nPeers, w := binary.Uvarint(rest)
		if w <= 0 {
			return fail("mirror peer count")
		}
		rest = rest[w:]
		for i := uint64(0); i < nPeers; i++ {
			peer, r, ok := readWireString(rest)
			if !ok {
				return fail("mirror peer")
			}
			rest = r
			nPreds, w := binary.Uvarint(rest)
			if w <= 0 {
				return fail("mirror table count")
			}
			rest = rest[w:]
			for j := uint64(0); j < nPreds; j++ {
				pred, r, ok := readWireString(rest)
				if !ok {
					return fail("mirror predicate")
				}
				rest = r
				nEntries, w := binary.Uvarint(rest)
				if w <= 0 {
					return fail("mirror entry count")
				}
				rest = rest[w:]
				ms := &mirrorSet{index: map[string]int{}}
				for k := uint64(0); k < nEntries; k++ {
					count, w := binary.Uvarint(rest)
					if w <= 0 || count == 0 {
						return fail("mirror entry multiplicity")
					}
					rest = rest[w:]
					vals, r, err := readWireVals(rest)
					if err != nil {
						return fail("mirror entry values")
					}
					rest = r
					key := valsKey(vals)
					ms.entries = append(ms.entries, mirrorEntry{key: key, hash: fnvHash(key), vals: vals, count: int(count)})
					ms.index[key] = len(ms.entries) - 1
					ms.live++
				}
				if mirrors[peer] == nil {
					mirrors[peer] = map[string]*mirrorSet{}
				}
				mirrors[peer][pred] = ms
			}
		}
	}
	if len(rest) != 0 {
		return fail("trailer")
	}
	return nil
}
