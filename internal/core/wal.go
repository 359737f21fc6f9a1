package core

// Write-ahead delta log records and replay. The log (internal/store.WAL)
// is a logical redo log of the node's externally visible transitions —
// external updates, network deliveries, solver materializations, resync
// outcomes, checkpoints — not of physical row writes. Replay re-executes
// the records through the same evaluation pipeline as live operation, so a
// replayed node re-derives everything a live node derived, rebuilds both
// replica mirrors, and ends in the same state, without retransmitting a
// single tuple.
//
// Record payloads reuse the varint wire primitives of the delta codec
// (tuple.go); framing/CRC/versioning live in internal/store.
//
// Record grammar (first payload byte is the type):
//
//	update:     [1][origin][pred][varint sign][vals]
//	solve:      [2][uvarint nTables]([pred][uvarint nTuples]([vals])*)*
//	            [hasGoal byte]([pred][vals])?
//	invokeDone: [3]
//	resync:     [4][peer][uvarint nTables]([name][uvarint nEntries]
//	            ([uvarint count][vals])*)*[uvarint nOps]
//	            ([pred][varint sign][uvarint times][vals])*
//	checkpoint: [5][checkpoint bytes (checkpoint.go)]
//
// Solve records are bracketed: an invokeSolver event always appends an
// invokeDone marker when the invoke finishes, preceded by a solve record
// iff the solve materialized (infeasible or failed solves materialize
// nothing). Brackets are contiguous — the node lock is held across the
// drain that fires the invoke — so replay can consume a bracket with a
// simple cursor (replayInvoke) instead of re-running the solver.

import (
	"encoding/binary"
	"fmt"

	"repro/internal/analysis"
	"repro/internal/colog"
	"repro/internal/transport"
)

const (
	walRecUpdate     = 1
	walRecSolve      = 2
	walRecInvokeDone = 3
	walRecResync     = 4
	walRecCheckpoint = 5
)

// resyncOp is one step of a resync update plan (see handleResyncRows).
type resyncOp struct {
	pred  string
	vals  []colog.Value
	sign  int
	times int
}

// resyncMirror is one table's rebuilt receive-side mirror, logged together
// with the plan so a replayed node's mirror and tables cannot disagree.
type resyncMirror struct {
	name    string
	entries []mirrorEntry
}

// walAppend writes one record to the delta log, unsynced. Append failures
// are sticky in the log: they land on LastError here and fail the next
// commit, so nothing the log lost is ever published.
func (n *Node) walAppend(payload []byte) {
	if err := n.wal.Append(payload); err != nil {
		n.LastError = fmt.Errorf("core: delta log append at %s: %w", n.Addr, err)
	}
}

// commit makes every record logged so far durable — the node's one commit
// point, passed before anything leaves it: before Tick and Solve return a
// decision, and before flush or a resync exchange hands frames to the
// transport. A serving tick's records therefore share one sync, and no
// decision or message is visible before the records behind it are. No-op
// without a log; the WAL skips the sync when nothing new was written.
func (n *Node) commit() error {
	if n.wal == nil {
		return nil
	}
	if err := n.wal.Sync(); err != nil {
		return fmt.Errorf("core: committing delta log at %s: %w", n.Addr, err)
	}
	return nil
}

func (n *Node) walUpdate(pred string, vals []colog.Value, sign int, origin string) {
	if n.wal == nil || n.replaying {
		return
	}
	buf := make([]byte, 0, 16+len(origin)+len(pred)+12*len(vals))
	buf = append(buf, walRecUpdate)
	buf = appendWireString(buf, origin)
	buf = appendWireString(buf, pred)
	buf = binary.AppendVarint(buf, int64(sign))
	buf, err := appendWireVals(buf, vals)
	if err != nil {
		n.LastError = fmt.Errorf("core: logging %s update at %s: %w", pred, n.Addr, err)
		return
	}
	n.walAppend(buf)
}

func (n *Node) walSolve(mats []matTable, goal *Tuple) {
	if n.wal == nil || n.replaying {
		return
	}
	buf := []byte{walRecSolve}
	buf = binary.AppendUvarint(buf, uint64(len(mats)))
	var err error
	for _, mt := range mats {
		buf = appendWireString(buf, mt.pred)
		buf = binary.AppendUvarint(buf, uint64(len(mt.tuples)))
		for _, t := range mt.tuples {
			if buf, err = appendWireVals(buf, t.Vals); err != nil {
				n.LastError = fmt.Errorf("core: logging solve at %s: %w", n.Addr, err)
				return
			}
		}
	}
	if goal != nil {
		buf = append(buf, 1)
		buf = appendWireString(buf, goal.Pred)
		if buf, err = appendWireVals(buf, goal.Vals); err != nil {
			n.LastError = fmt.Errorf("core: logging solve goal at %s: %w", n.Addr, err)
			return
		}
	} else {
		buf = append(buf, 0)
	}
	n.walAppend(buf)
}

func (n *Node) walInvokeDone() {
	if n.wal == nil || n.replaying {
		return
	}
	n.walAppend([]byte{walRecInvokeDone})
}

func (n *Node) walResync(peer string, tables []resyncMirror, plan []resyncOp) {
	if n.wal == nil || n.replaying {
		return
	}
	buf := []byte{walRecResync}
	buf = appendWireString(buf, peer)
	buf = binary.AppendUvarint(buf, uint64(len(tables)))
	var err error
	for _, tb := range tables {
		buf = appendWireString(buf, tb.name)
		live := 0
		for _, e := range tb.entries {
			if e.count > 0 {
				live++
			}
		}
		buf = binary.AppendUvarint(buf, uint64(live))
		for _, e := range tb.entries {
			if e.count <= 0 {
				continue
			}
			buf = binary.AppendUvarint(buf, uint64(e.count))
			if buf, err = appendWireVals(buf, e.vals); err != nil {
				n.LastError = fmt.Errorf("core: logging resync at %s: %w", n.Addr, err)
				return
			}
		}
	}
	buf = binary.AppendUvarint(buf, uint64(len(plan)))
	for _, o := range plan {
		buf = appendWireString(buf, o.pred)
		buf = binary.AppendVarint(buf, int64(o.sign))
		buf = binary.AppendUvarint(buf, uint64(o.times))
		if buf, err = appendWireVals(buf, o.vals); err != nil {
			n.LastError = fmt.Errorf("core: logging resync at %s: %w", n.Addr, err)
			return
		}
	}
	n.walAppend(buf)
}

// ------------------------------------------------------------ decoding

func decodeWALUpdate(rec []byte) (origin, pred string, sign int, vals []colog.Value, err error) {
	rest := rec[1:]
	var ok bool
	if origin, rest, ok = readWireString(rest); !ok {
		return "", "", 0, nil, fmt.Errorf("malformed update origin")
	}
	if pred, rest, ok = readWireString(rest); !ok {
		return "", "", 0, nil, fmt.Errorf("malformed update predicate")
	}
	s, w := binary.Varint(rest)
	if w <= 0 {
		return "", "", 0, nil, fmt.Errorf("malformed update sign")
	}
	rest = rest[w:]
	if vals, rest, err = readWireVals(rest); err != nil {
		return "", "", 0, nil, err
	}
	if len(rest) != 0 {
		return "", "", 0, nil, fmt.Errorf("trailing bytes in update record")
	}
	return origin, pred, int(s), vals, nil
}

func decodeWALSolve(rec []byte) ([]matTable, *Tuple, error) {
	rest := rec[1:]
	nTables, w := binary.Uvarint(rest)
	if w <= 0 {
		return nil, nil, fmt.Errorf("malformed solve table count")
	}
	rest = rest[w:]
	mats := make([]matTable, 0, nTables)
	for i := uint64(0); i < nTables; i++ {
		pred, r, ok := readWireString(rest)
		if !ok {
			return nil, nil, fmt.Errorf("malformed solve predicate")
		}
		rest = r
		nTuples, w := binary.Uvarint(rest)
		if w <= 0 {
			return nil, nil, fmt.Errorf("malformed solve tuple count")
		}
		rest = rest[w:]
		tuples := make([]Tuple, 0, nTuples)
		for j := uint64(0); j < nTuples; j++ {
			vals, r, err := readWireVals(rest)
			if err != nil {
				return nil, nil, err
			}
			rest = r
			tuples = append(tuples, Tuple{pred, vals})
		}
		mats = append(mats, matTable{pred: pred, tuples: tuples})
	}
	if len(rest) == 0 {
		return nil, nil, fmt.Errorf("malformed solve goal flag")
	}
	hasGoal := rest[0] != 0
	rest = rest[1:]
	var goal *Tuple
	if hasGoal {
		pred, r, ok := readWireString(rest)
		if !ok {
			return nil, nil, fmt.Errorf("malformed solve goal predicate")
		}
		vals, r2, err := readWireVals(r)
		if err != nil {
			return nil, nil, err
		}
		rest = r2
		goal = &Tuple{pred, vals}
	}
	if len(rest) != 0 {
		return nil, nil, fmt.Errorf("trailing bytes in solve record")
	}
	return mats, goal, nil
}

func decodeWALResync(rec []byte) (peer string, tables []resyncMirror, plan []resyncOp, err error) {
	rest := rec[1:]
	var ok bool
	if peer, rest, ok = readWireString(rest); !ok {
		return "", nil, nil, fmt.Errorf("malformed resync peer")
	}
	nTables, w := binary.Uvarint(rest)
	if w <= 0 {
		return "", nil, nil, fmt.Errorf("malformed resync table count")
	}
	rest = rest[w:]
	for i := uint64(0); i < nTables; i++ {
		name, r, ok := readWireString(rest)
		if !ok {
			return "", nil, nil, fmt.Errorf("malformed resync table name")
		}
		rest = r
		nEntries, w := binary.Uvarint(rest)
		if w <= 0 {
			return "", nil, nil, fmt.Errorf("malformed resync entry count")
		}
		rest = rest[w:]
		m := resyncMirror{name: name}
		for j := uint64(0); j < nEntries; j++ {
			count, w := binary.Uvarint(rest)
			if w <= 0 {
				return "", nil, nil, fmt.Errorf("malformed resync entry count value")
			}
			rest = rest[w:]
			vals, r, err := readWireVals(rest)
			if err != nil {
				return "", nil, nil, err
			}
			rest = r
			key := valsKey(vals)
			m.entries = append(m.entries, mirrorEntry{key: key, hash: fnvHash(key), vals: vals, count: int(count)})
		}
		tables = append(tables, m)
	}
	nOps, w := binary.Uvarint(rest)
	if w <= 0 {
		return "", nil, nil, fmt.Errorf("malformed resync op count")
	}
	rest = rest[w:]
	for i := uint64(0); i < nOps; i++ {
		pred, r, ok := readWireString(rest)
		if !ok {
			return "", nil, nil, fmt.Errorf("malformed resync op predicate")
		}
		rest = r
		s, w := binary.Varint(rest)
		if w <= 0 {
			return "", nil, nil, fmt.Errorf("malformed resync op sign")
		}
		rest = rest[w:]
		times, w := binary.Uvarint(rest)
		if w <= 0 {
			return "", nil, nil, fmt.Errorf("malformed resync op times")
		}
		rest = rest[w:]
		vals, r2, err := readWireVals(rest)
		if err != nil {
			return "", nil, nil, err
		}
		rest = r2
		plan = append(plan, resyncOp{pred: pred, vals: vals, sign: int(s), times: int(times)})
	}
	if len(rest) != 0 {
		return "", nil, nil, fmt.Errorf("trailing bytes in resync record")
	}
	return peer, tables, plan, nil
}

// ------------------------------------------------------------ replay

// ReplayNode rebuilds a node from its write-ahead delta log: the instance
// is constructed empty (program facts are in the log — they were inserted
// and logged by the original NewNode) and every surviving record is
// re-executed with logging and transmission suppressed. Requires a
// Config.Storage backend with a log. The log may be torn (crash mid-append
// or truncated tail): the store layer already dropped the partial record,
// and a bracket torn mid-invoke simply ends the replay — anti-entropy
// resync reconciles whatever the lost suffix contained.
func ReplayNode(addr string, res *analysis.Result, cfg Config, tr transport.Transport) (*Node, error) {
	p, err := Compile(res, cfg.Keys, cfg.Events)
	if err != nil {
		return nil, err
	}
	return p.ReplayNode(addr, cfg, tr)
}

// replayLog re-executes the log records against a freshly constructed
// (empty-table) node. CRC-valid records that fail semantic decoding are an
// error: the store layer guarantees a torn tail never reaches this loop,
// so a malformed record here means corruption or version drift.
func (n *Node) replayLog(recs [][]byte) error {
	n.mu.Lock()
	n.replaying = true
	n.replayRecs = recs
	n.replayPos = 0
	n.mu.Unlock()
	defer func() {
		n.mu.Lock()
		n.replaying = false
		n.replayRecs = nil
		n.replayPos = 0
		n.mu.Unlock()
	}()
	for {
		n.mu.Lock()
		if n.replayPos >= len(n.replayRecs) {
			n.mu.Unlock()
			return nil
		}
		rec := n.replayRecs[n.replayPos]
		n.replayPos++
		n.mu.Unlock()
		if len(rec) == 0 {
			return fmt.Errorf("empty log record")
		}
		switch rec[0] {
		case walRecCheckpoint:
			// A compaction point: the checkpoint is the net effect of every
			// record it replaced.
			if err := n.ImportCheckpoint(rec[1:]); err != nil {
				return err
			}
		case walRecUpdate:
			origin, pred, sign, vals, err := decodeWALUpdate(rec)
			if err != nil {
				return err
			}
			if err := n.updateFromLogged(pred, vals, sign, origin, false); err != nil {
				return err
			}
		case walRecSolve:
			// A top-level Solve call (event-fired solves are consumed inside
			// their bracket by replayInvoke before the cursor returns here).
			mats, goal, err := decodeWALSolve(rec)
			if err != nil {
				return err
			}
			n.mu.Lock()
			err = n.applyMaterialization(mats, goal)
			n.mu.Unlock()
			if err != nil {
				return err
			}
		case walRecResync:
			if err := n.replayResync(rec); err != nil {
				return err
			}
		case walRecInvokeDone:
			// An unconsumed invoke-done marker: its solve record was applied
			// at top level or the bracket start was compacted away. Harmless.
		default:
			return fmt.Errorf("unknown log record type %d", rec[0])
		}
	}
}

// replayInvoke consumes one invoke bracket from the record cursor in place
// of running the solver: a solve record (if the live invoke materialized)
// followed by the invoke-done marker. Called with n.mu held, from inside
// the drain that fired the invokeSolver event — mirroring exactly where
// the live node ran the solver and appended the bracket. Hitting the end
// of the records mid-bracket means the crash tore the invoke's tail away;
// the replay simply stops deriving there and resync reconciles.
func (n *Node) replayInvoke() {
	for {
		if n.replayPos >= len(n.replayRecs) {
			return // torn bracket at the log tail
		}
		rec := n.replayRecs[n.replayPos]
		if len(rec) == 0 {
			n.LastError = fmt.Errorf("core: replay at %s: empty record in invoke bracket", n.Addr)
			return
		}
		switch rec[0] {
		case walRecInvokeDone:
			n.replayPos++
			return
		case walRecSolve:
			n.replayPos++
			mats, goal, err := decodeWALSolve(rec)
			if err != nil {
				n.LastError = fmt.Errorf("core: replay at %s: %w", n.Addr, err)
				return
			}
			// The deltas queue on the node and are drained by the outer
			// loop that fired the invoke — identical to a live materialize,
			// whose drain call is likewise re-entrant here.
			if err := n.applyMaterialization(mats, goal); err != nil {
				n.LastError = err
				return
			}
		default:
			// Live brackets are contiguous under the node lock, and tearing
			// only removes a log suffix — a foreign record inside a bracket
			// means corruption.
			n.LastError = fmt.Errorf("core: replay at %s: record type %d inside invoke bracket", n.Addr, rec[0])
			return
		}
	}
}

// replayResync re-applies a logged resync outcome: install the rebuilt
// receive-side mirrors, then re-run the update plan (unlogged — the resync
// record covers it, exactly as it did live).
func (n *Node) replayResync(rec []byte) error {
	peer, tables, plan, err := decodeWALResync(rec)
	if err != nil {
		return err
	}
	n.mu.Lock()
	for _, tb := range tables {
		next := &mirrorSet{index: map[string]int{}}
		for _, e := range tb.entries {
			next.entries = append(next.entries, e)
			next.index[e.key] = len(next.entries) - 1
			next.live++
		}
		if n.repl.recv[peer] == nil {
			n.repl.recv[peer] = map[string]*mirrorSet{}
		}
		n.repl.recv[peer][tb.name] = next
	}
	n.mu.Unlock()
	for _, o := range plan {
		for i := 0; i < o.times; i++ {
			if err := n.updateFromLogged(o.pred, o.vals, o.sign, "", false); err != nil {
				return err
			}
		}
	}
	return nil
}

// SetEnsureInserts toggles idempotent-insert mode: while set, inserting a
// row that is already visible is a complete no-op — no derivation count
// bump, no log record. The cluster restart path uses it to re-inject a
// node's base facts (program facts + seed) after a log replay: with an
// intact log every fact is already present and nothing happens; with a
// torn log the facts the lost records carried are restored, because local
// base facts are the one thing anti-entropy cannot pull from peers.
func (n *Node) SetEnsureInserts(on bool) {
	n.mu.Lock()
	n.ensure = on
	n.mu.Unlock()
}

// InsertProgramFacts loads the program facts addressed to this node — the
// same loading NewNode performs. Exposed for the restart path, which
// constructs nodes via replay (no fact loading) and then re-ensures them.
func (n *Node) InsertProgramFacts() error {
	for _, f := range n.prog.res.Program.Facts {
		vals := make([]colog.Value, len(f.Atom.Args))
		for i, a := range f.Atom.Args {
			vals[i] = a.(*colog.ConstTerm).Val
		}
		ti := n.prog.res.Tables[f.Atom.Pred]
		if ti.LocCol >= 0 && vals[ti.LocCol].S != n.Addr {
			continue
		}
		if err := n.Insert(f.Atom.Pred, vals...); err != nil {
			return err
		}
	}
	return nil
}
