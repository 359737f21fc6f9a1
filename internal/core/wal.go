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
// Every payload below is built from the primitives of codec.go and parsed
// through its one reader; framing, CRC and versioning of log records live
// in internal/store. Notation: [x] is one field, (...)* repeats, (...)? is
// optional; str is a uvarint length and the bytes, vals a uvarint count
// and kind-tagged values, u32 and u64 fixed-width little-endian.
//
// Record grammar (first payload byte is the type):
//
//	update:     [1][str origin][str pred][varint sign][vals]
//	solve:      [2][tuples][optTuple goal]
//	invokeDone: [3]
//	resync:     [4][str peer][mirrors][uvarint nOps]
//	            ([str pred][varint sign][uvarint times][vals])*
//	checkpoint: [5][checkpoint]
//
// Sections that records and checkpoints share, one encoder and one decoder
// each (codec.go):
//
//	tuples:     [uvarint nTables]([str pred][uvarint nTuples]([vals])*)*
//	optTuple:   [byte present]([str pred][vals])?
//	mirrors:    [uvarint nTables]([str name][uvarint live]
//	            ([uvarint count][vals])*)*          live entries, mirror order
//
// A checkpoint (checkpoint.go) is its sections in this order; its
// materialization section is encoded exactly as a solve record's tables,
// and each peer's mirrors exactly as a resync record's:
//
//	checkpoint: [byte version=1]
//	            [uvarint nTables]([str name][uvarint arity][uvarint nextSeq]
//	              [uvarint nRows]([uvarint seq][uvarint count][uvarint base][vals])*
//	              [uvarint nFreed]([str key][uvarint seq])*)*
//	            [uvarint nAggs]([uvarint rule][byte fn][uvarint nGroups]
//	              ([vals group][optTuple emitted]
//	               [uvarint nItems]([vals item][uvarint count])*)*)*
//	            [tuples materialization]
//	            [uvarint nPeers]([str peer][mirrors])*    sent mirrors
//	            [uvarint nPeers]([str peer][mirrors])*    receive mirrors
//
// Frames between nodes (first byte is the version): delta and batch frames
// (tuple.go), and the two resync frames of one exchange chunk
// (recovery.go):
//
//	delta:      [1][str pred][varint sign][vals]
//	batch:      [2][uvarint n]([str pred][varint sign][vals])*
//	digest:     [3][byte mode][u64 xid][u32 chunk][u32 total][byte nTables]
//	            ([str name][uvarint live][u64 orderHash][uvarint nHashes]
//	              ([u64 rowHash])*)*
//	rows:       [4][u64 xid][u32 chunk][u32 total][byte nTables]
//	            ([str name][uvarint nEntries]
//	              ([byte 0][u64 rowHash][uvarint count] |
//	               [byte 1][uvarint count][vals])*)*
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
	buf, err := encodeWALUpdate(make([]byte, 0, 16+len(origin)+len(pred)+12*len(vals)), origin, pred, sign, vals)
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
	buf, err := encodeWALSolve(mats, goal)
	if err != nil {
		n.LastError = fmt.Errorf("core: logging solve at %s: %w", n.Addr, err)
		return
	}
	n.walAppend(buf)
}

func (n *Node) walInvokeDone() {
	if n.wal == nil || n.replaying {
		return
	}
	n.walAppend([]byte{walRecInvokeDone})
}

// walResync logs a resync outcome: the rebuilt receive-side mirrors of the
// named tables and the update plan, together, so a replayed node's mirrors
// and tables cannot disagree.
func (n *Node) walResync(peer string, names []string, sets []*mirrorSet, plan []resyncOp) {
	if n.wal == nil || n.replaying {
		return
	}
	buf, err := encodeWALResync(peer, names, sets, plan)
	if err != nil {
		n.LastError = fmt.Errorf("core: logging resync at %s: %w", n.Addr, err)
		return
	}
	n.walAppend(buf)
}

// ------------------------------------------------------------ codec

func encodeWALUpdate(buf []byte, origin, pred string, sign int, vals []colog.Value) ([]byte, error) {
	buf = AppendWireString(append(buf, walRecUpdate), origin)
	buf = AppendWireString(buf, pred)
	return AppendWireValues(binary.AppendVarint(buf, int64(sign)), vals)
}

func decodeWALUpdate(rec []byte) (origin, pred string, sign int, vals []colog.Value, err error) {
	d := dec{b: rec[1:]}
	origin = d.str("update origin")
	pred = d.str("update predicate")
	sign = int(d.varint("update sign"))
	vals = d.vals("update values")
	return origin, pred, sign, vals, d.end()
}

func encodeWALSolve(mats []matTable, goal *Tuple) ([]byte, error) {
	buf, err := appendTuples([]byte{walRecSolve}, mats)
	if err != nil {
		return nil, err
	}
	return appendOptTuple(buf, goal)
}

func decodeWALSolve(rec []byte) ([]matTable, *Tuple, error) {
	d := dec{b: rec[1:]}
	mats := d.tuples()
	goal := d.optTuple()
	return mats, goal, d.end()
}

func encodeWALResync(peer string, names []string, sets []*mirrorSet, plan []resyncOp) ([]byte, error) {
	buf, err := appendMirrors(AppendWireString([]byte{walRecResync}, peer), names, sets)
	if err != nil {
		return nil, err
	}
	buf = binary.AppendUvarint(buf, uint64(len(plan)))
	for _, o := range plan {
		buf = AppendWireString(buf, o.pred)
		buf = binary.AppendVarint(buf, int64(o.sign))
		buf = binary.AppendUvarint(buf, uint64(o.times))
		if buf, err = AppendWireValues(buf, o.vals); err != nil {
			return nil, err
		}
	}
	return buf, nil
}

// resyncPlan reads a resync record's update plan.
func (d *dec) resyncPlan() []resyncOp {
	plan := make([]resyncOp, d.count("resync op count"))
	for i := range plan {
		o := &plan[i]
		o.pred = d.str("resync op predicate")
		o.sign = int(d.varint("resync op sign"))
		o.times = int(d.uvarint("resync op times"))
		o.vals = d.vals("resync op values")
	}
	return plan
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
// record covers it, exactly as it did live). The whole record is decoded
// and checked before anything is applied.
func (n *Node) replayResync(rec []byte) error {
	d := dec{b: rec[1:]}
	peer := d.str("resync peer")
	names, sets := d.mirrors()
	plan := d.resyncPlan()
	if err := d.end(); err != nil {
		return err
	}
	n.mu.Lock()
	for i, name := range names {
		if n.repl.recv[peer] == nil {
			n.repl.recv[peer] = map[string]*mirrorSet{}
		}
		n.repl.recv[peer][name] = sets[i]
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
