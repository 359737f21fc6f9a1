package core

import (
	"fmt"
	"runtime"
	"sync"
	"time"

	"repro/internal/analysis"
	"repro/internal/colog"
	"repro/internal/store"
	"repro/internal/transport"
)

// InvokeSolverPred is the reserved event predicate that triggers constraint
// solving when a tuple of it is derived or inserted (the paper's
// invokeSolver event).
const InvokeSolverPred = "invokeSolver"

// Config tunes one Cologne instance.
type Config struct {
	// Params binds named Colog parameters (max_migrates, F_mindiff, ...).
	Params map[string]colog.Value
	// Keys declares primary-key columns per table (NDlog materialize
	// semantics); tables without an entry use whole-row set semantics.
	Keys map[string][]int
	// Events lists predicates with event semantics: their tuples stream
	// through rules but are never stored. invokeSolver is always an event.
	Events []string
	// SolverMaxTime bounds each COP execution (the paper's
	// SOLVER_MAX_TIME); zero means no limit.
	SolverMaxTime time.Duration
	// SolverMaxNodes bounds search nodes per COP execution; zero = no limit.
	SolverMaxNodes int64
	// SolverPropagate enables forward-checking propagation in the solver.
	SolverPropagate bool
	// SolverFixpoint drains the propagator queue to fixpoint after every
	// assignment: strictly stronger pruning, same optima, fewer nodes — so
	// under a binding node budget the incumbent may differ from the default
	// schedule's.
	SolverFixpoint bool
	// SolverRestarts, when positive, runs each COP as a restart sequence
	// with geometrically growing node limits; saved phases feed the
	// warm-start hints of later runs.
	SolverRestarts int
	// GroundWorkers bounds the worker pool grounding independent solver
	// rules in parallel: 0 picks a default from GOMAXPROCS, 1 (or any
	// negative value) forces serial grounding. Results are merged in rule
	// order, so the outcome is identical at any setting.
	GroundWorkers int
	// SolverIncremental enables incremental re-grounding: the node keeps the
	// grounded solver model between solves and, on the next solve, re-grounds
	// only the rule instantiations affected by the tuples that changed,
	// patching the existing model in place (see incremental.go). Solutions
	// and objectives are identical to fresh grounding; only the work per
	// re-solve shrinks.
	SolverIncremental bool
	// SolverWarmStart seeds each solve's value ordering from the previous
	// solve's materialized assignments when the caller supplies no explicit
	// hint. Warm starts steer the search, so under node or time budgets the
	// returned incumbent may differ from a cold solve's.
	SolverWarmStart bool
	// BatchDeltas coalesces the outgoing deltas of one flush into a single
	// batch frame per destination (see wireBatchVersion in tuple.go): fewer,
	// larger messages with identical delivery contents and order. Combined
	// with HoldOutbox this batches per (epoch, destination), which is what
	// the cluster runtime enables at scale. Message-level traces (counts)
	// differ from unbatched runs; table state and solve results do not.
	BatchDeltas bool
	// Storage selects the node's storage backend (see internal/store). Nil
	// means a private in-memory backend — the pre-storage behavior. A
	// backend with a write-ahead log (store.Open("disk", ...)) makes every
	// visible transition durable: the node logs external updates, solver
	// materializations, and resync outcomes, and ReplayNode can rebuild
	// the node's exact state from the log alone. Records become durable at
	// the node's commit points (see commit in wal.go). The same Store value
	// must be handed back on restart — its log is the node's persistent
	// identity.
	Storage store.Store
	// DeferFacts skips the program-fact load inside NewNode; the caller
	// must invoke InsertProgramFacts itself once every peer the facts'
	// derivations may reach is registered. Multi-process sharded runs need
	// this: a shard that loaded facts while a peer process was still
	// spawning would ship deltas to endpoints with no handler yet.
	DeferFacts bool
}

// NodeStats counts a node's evaluation work.
type NodeStats struct {
	DeltasProcessed int64
	TuplesSent      int64
	Solves          int64
}

// Node is one Cologne instance: a distributed query engine plus a
// constraint-solver bridge, executing an analyzed Colog program at a given
// network address.
type Node struct {
	Addr string

	prog   *Program
	cfg    Config
	tr     transport.Transport
	tables map[string]*table
	aggs   map[int]*aggState
	// runs holds this node's mutable state per shared plan, by plan id;
	// the slice and each entry are allocated on first firing.
	runs []planRun

	queue    []delta
	qhead    int
	outbox   []outMsg
	holding  bool
	draining bool
	mu       sync.Mutex

	// Recursive groups awaiting recompute (DRed; the groups themselves
	// are the Program's, see dred.go).
	dirtyGroups map[int]bool

	lastMaterialized map[string][]Tuple

	// lastDecisions is the decision snapshot published by the most recent
	// Tick (see tick.go) — the baseline its successor diffs against. It
	// advances on degraded ticks too, unlike lastMaterialized, which only
	// completed solves touch.
	lastDecisions []Assignment

	// Incremental re-grounding state (cfg.SolverIncremental): the grounding
	// cache of the previous solve, and the per-predicate net row changes
	// accumulated since it was built. See incremental.go.
	ground       *groundState
	groundDeltas map[string]map[string]*netDelta
	deltaKeyBuf  []byte

	// Replica mirrors and resync-protocol state (recovery.go): what this
	// node has asserted at each peer, what each peer has asserted here, the
	// in-progress chunked resync sessions, and the pull counters.
	repl replica

	// The storage backend's write-ahead delta log (nil for the in-memory
	// backend). During replay (see wal.go) the node re-executes its logged
	// transitions with logging and transmission suppressed;
	// replayRecs/replayPos form the record cursor that lets a replayed
	// invokeSolver event consume the logged solver outcome instead of
	// re-running the solver.
	wal        *store.WAL
	replaying  bool
	replayRecs [][]byte
	replayPos  int
	// ensure makes already-visible inserts a no-op (SetEnsureInserts).
	ensure bool

	// OnInvokeSolver, when non-nil, runs instead of the default Solve
	// whenever an invokeSolver event fires.
	OnInvokeSolver func(n *Node)
	// LastSolveResult holds the most recent solver outcome (also returned
	// by Solve).
	LastSolveResult *SolveResult
	// LastError records the most recent asynchronous evaluation error
	// (e.g. triggered by an incoming network tuple).
	LastError error

	stats NodeStats
}

// NewNode creates a Cologne instance for an analyzed program. The node
// registers itself on the transport under addr. It compiles the program
// for this one node; callers building many nodes of one program should
// Compile once and use Program.NewNode.
func NewNode(addr string, res *analysis.Result, cfg Config, tr transport.Transport) (*Node, error) {
	p, err := Compile(res, cfg.Keys, cfg.Events)
	if err != nil {
		return nil, err
	}
	return p.NewNode(addr, cfg, tr)
}

// RestoreNode rebuilds a node from a checkpoint exported by
// ExportCheckpoint: the instance is constructed without loading program
// facts (the checkpoint is the state those facts — and everything after
// them — produced) and the checkpointed tables, aggregate views, replica
// mirrors, and materialization memory are installed verbatim, including
// every row's arrival-order seq. No deltas are emitted and nothing is sent:
// a restored node resumes exactly where the checkpoint left off, and the
// anti-entropy resync (StartResync) pulls whatever the cluster decided
// since.
func RestoreNode(addr string, res *analysis.Result, cfg Config, tr transport.Transport, checkpoint []byte) (*Node, error) {
	p, err := Compile(res, cfg.Keys, cfg.Events)
	if err != nil {
		return nil, err
	}
	return p.RestoreNode(addr, cfg, tr, checkpoint)
}

// Stats returns evaluation counters.
func (n *Node) Stats() NodeStats { return n.stats }

// LogStats returns the cumulative record and byte counts appended to the
// node's write-ahead delta log (zeros for the in-memory backend). The
// counters are monotone across checkpoints/compactions and across node
// generations sharing one backend, so interval deltas are meaningful.
func (n *Node) LogStats() (records, bytes int64) {
	if n.wal == nil {
		return 0, 0
	}
	return n.wal.Stats()
}

// groundWorkers resolves the grounding worker-pool size.
func (n *Node) groundWorkers() int {
	w := n.cfg.GroundWorkers
	if w == 0 {
		w = runtime.GOMAXPROCS(0)
		if w > 8 {
			w = 8
		}
	}
	if w < 1 {
		w = 1
	}
	return w
}

// runLimited runs fn(0..n-1) on at most workers goroutines and waits for
// completion. A panic inside fn is captured and re-raised on the calling
// goroutine (lowest index wins), so callers can recover from parallel
// grounding exactly as they would from a serial run.
func runLimited(n, workers int, fn func(int)) {
	if workers > n {
		workers = n
	}
	var wg sync.WaitGroup
	next := make(chan int)
	panics := make([]any, n)
	run := func(i int) {
		defer func() {
			if r := recover(); r != nil {
				panics[i] = r
			}
		}()
		fn(i)
	}
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				run(i)
			}
		}()
	}
	for i := 0; i < n; i++ {
		next <- i
	}
	close(next)
	wg.Wait()
	for _, p := range panics {
		if p != nil {
			panic(p)
		}
	}
}

// Program returns the analyzed program the node executes.
func (n *Node) Program() *analysis.Result { return n.prog.res }

// Insert adds a fact and runs incremental evaluation to fixpoint.
func (n *Node) Insert(pred string, vals ...colog.Value) error {
	return n.update(pred, vals, +1)
}

// Delete retracts a fact and runs incremental evaluation to fixpoint.
func (n *Node) Delete(pred string, vals ...colog.Value) error {
	return n.update(pred, vals, -1)
}

// outMsg is a tuple delta awaiting transmission. Remote sends are buffered
// during evaluation and flushed after the node's lock is released, so a
// synchronous transport delivering a reply back to this node cannot
// deadlock.
type outMsg struct {
	to      string
	payload []byte
}

func (n *Node) update(pred string, vals []colog.Value, sign int) error {
	return n.updateFrom(pred, vals, sign, "")
}

// updateFrom is update with the sending peer recorded: network deliveries
// pass the transport-level sender so the receive-side replica mirror tracks
// what each peer has asserted here (the state the anti-entropy resync
// reconciles after a restart; see recovery.go).
func (n *Node) updateFrom(pred string, vals []colog.Value, sign int, origin string) error {
	return n.updateFromLogged(pred, vals, sign, origin, true)
}

// updateFromLogged is updateFrom with write-ahead logging switchable off:
// resync application and log replay re-apply updates that are already
// covered by an atomic resync record (or by the log itself) and must not
// log them again.
func (n *Node) updateFromLogged(pred string, vals []colog.Value, sign int, origin string, logIt bool) error {
	n.mu.Lock()
	t, ok := n.tables[pred]
	if !ok {
		n.mu.Unlock()
		return everrf(pred, "unknown predicate")
	}
	if len(vals) != t.arity {
		n.mu.Unlock()
		return everrf(pred, "arity mismatch: table has %d columns, got %d values", t.arity, len(vals))
	}
	if n.ensure && sign > 0 && !t.event && t.contains(vals) {
		n.mu.Unlock()
		return nil // idempotent re-injection: row already visible
	}
	if logIt {
		n.walUpdate(pred, vals, sign, origin)
	}
	if origin != "" && !t.event {
		n.repl.noteRecv(origin, pred, vals, sign)
	}
	n.enqueue(delta{Tuple{pred, vals}, sign, false})
	err := n.drain()
	if n.holding {
		n.mu.Unlock()
		return err
	}
	out := n.takeOutbox()
	n.mu.Unlock()
	if ferr := n.flush(out); err == nil {
		err = ferr
	}
	return err
}

// HoldOutbox toggles outbox holding: while held, updates leave their
// outgoing deltas queued on the node instead of flushing them after each
// call, so one FlushOutbox at the end of an epoch transmits everything the
// node produced — one batch frame per destination when Config.BatchDeltas
// is set. Turning holding off does not flush by itself.
func (n *Node) HoldOutbox(hold bool) {
	n.mu.Lock()
	n.holding = hold
	n.mu.Unlock()
}

// FlushOutbox transmits every held outgoing delta. Safe to call when the
// outbox is empty.
func (n *Node) FlushOutbox() error {
	n.mu.Lock()
	out := n.takeOutbox()
	n.mu.Unlock()
	return n.flush(out)
}

// takeOutbox removes and returns the pending remote sends; the caller must
// hold n.mu.
func (n *Node) takeOutbox() []outMsg {
	out := n.outbox
	n.outbox = nil
	return out
}

// flush transmits buffered messages. Must be called without holding n.mu.
// It is a commit point: the log records behind the messages are synced
// first, and nothing is sent if that fails. With Config.BatchDeltas,
// messages to the same destination coalesce into one batch frame (delta
// order within a destination is preserved). Payload buffers return to the
// wire pool once the transport has consumed them (Send must not retain the
// payload after it returns).
func (n *Node) flush(out []outMsg) error {
	if len(out) == 0 {
		return nil
	}
	if err := n.commit(); err != nil {
		for _, m := range out {
			putWireBuf(m.payload)
		}
		return err
	}
	if n.cfg.BatchDeltas && len(out) > 1 {
		return n.flushBatched(out)
	}
	var firstErr error
	for _, m := range out {
		if err := n.tr.Send(n.Addr, m.to, m.payload); err != nil && firstErr == nil {
			firstErr = err
		}
		putWireBuf(m.payload)
	}
	return firstErr
}

// flushBatched groups the outbox per destination (in first-appearance
// order) and sends the merged frames — usually one per destination, more
// when the batch exceeds the per-frame budget (see MergeDeltaPayloads).
// Every buffer is recycled exactly once: a multi-source batch frame is
// recycled along with the sources it copied, while a pass-through frame
// aliases its source and is recycled only as the frame.
func (n *Node) flushBatched(out []outMsg) error {
	var order []string
	grouped := make(map[string][][]byte, 4)
	for _, m := range out {
		if _, ok := grouped[m.to]; !ok {
			order = append(order, m.to)
		}
		grouped[m.to] = append(grouped[m.to], m.payload)
	}
	var firstErr error
	for _, to := range order {
		sources := grouped[to]
		frames, counts, err := mergeDeltaFrames(sources)
		if err != nil {
			// Sources were not consumed into frames; recycle them directly.
			for _, p := range sources {
				putWireBuf(p)
			}
			if firstErr == nil {
				firstErr = err
			}
			continue
		}
		src := 0
		for i, frame := range frames {
			if err == nil {
				err = n.tr.Send(n.Addr, to, frame)
			}
			putWireBuf(frame)
			if counts[i] > 1 { // copied batch: sources still owned here
				for _, p := range sources[src : src+counts[i]] {
					putWireBuf(p)
				}
			}
			src += counts[i]
		}
		if err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return firstErr
}

// Rows returns the visible rows of a table, deterministically sorted.
func (n *Node) Rows(pred string) [][]colog.Value {
	n.mu.Lock()
	defer n.mu.Unlock()
	t, ok := n.tables[pred]
	if !ok {
		return nil
	}
	return t.snapshot()
}

// Contains reports whether the exact fact is currently visible.
func (n *Node) Contains(pred string, vals ...colog.Value) bool {
	n.mu.Lock()
	defer n.mu.Unlock()
	t, ok := n.tables[pred]
	return ok && t.contains(vals)
}

// TableNames lists the node's table names.
func (n *Node) TableNames() []string {
	names := make([]string, 0, len(n.tables))
	for name := range n.tables {
		names = append(names, name)
	}
	return names
}

// handleMessage ingests one network message: tuple deltas (a single delta
// or a batch frame applied in order) or a resync-protocol frame
// (recovery.go).
func (n *Node) handleMessage(m transport.Message) {
	if len(m.Payload) > 0 {
		switch m.Payload[0] {
		case wireResyncDigestVersion:
			if err := n.handleResyncDigest(m.From, m.Payload); err != nil {
				n.LastError = err
			}
			return
		case wireResyncRowsVersion:
			if err := n.handleResyncRows(m.From, m.Payload); err != nil {
				n.LastError = err
			}
			return
		}
	}
	if len(m.Payload) > 0 && m.Payload[0] == wireDeltaVersion {
		// Unbatched frames dominate the receive path; decode without the
		// slice detour.
		wd, err := decodeDelta(m.Payload)
		if err != nil {
			n.LastError = err
			return
		}
		if err := n.updateFrom(wd.Pred, wd.Vals, wd.Sign, m.From); err != nil {
			n.LastError = err
		}
		return
	}
	wds, err := decodeDeltas(m.Payload)
	if err != nil {
		n.LastError = err
		return
	}
	for _, wd := range wds {
		if err := n.updateFrom(wd.Pred, wd.Vals, wd.Sign, m.From); err != nil {
			n.LastError = err
		}
	}
}

// enqueue schedules a delta; the caller must hold n.mu and call drain.
func (n *Node) enqueue(d delta) { n.queue = append(n.queue, d) }

// drain processes queued deltas to a local fixpoint (pipelined semi-naive
// evaluation): each delta is applied to its table, and the visible
// transitions trigger the compiled delta plans, which may enqueue more
// deltas or ship tuples to other nodes. The queue is consumed through a
// head index so the backing array is reused across bursts instead of
// reallocating as the front advances.
func (n *Node) drain() error {
	if n.draining {
		return nil // re-entrant call from a plan; outer loop continues
	}
	n.draining = true
	defer func() { n.draining = false }()
	var firstErr error
	for {
		for n.qhead < len(n.queue) {
			d := n.queue[n.qhead]
			n.qhead++
			if n.qhead == len(n.queue) {
				n.queue = n.queue[:0]
				n.qhead = 0
			}
			t, ok := n.tables[d.tuple.Pred]
			if !ok {
				if firstErr == nil {
					firstErr = everrf(d.tuple.Pred, "unknown predicate in delta")
				}
				continue
			}
			trs, ntr := t.apply(d.tuple.Vals, d.sign, d.derived)
			for _, tr := range trs[:ntr] {
				if err := n.processTransition(tr, -1); err != nil && firstErr == nil {
					firstErr = err
				}
			}
		}
		// Deletions touching recursive predicate groups are finalized by a
		// base-fact recompute once the incremental queue is empty.
		gi := n.nextDirtyGroup()
		if gi < 0 {
			break
		}
		delete(n.dirtyGroups, gi)
		if err := n.recomputeGroup(gi); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return firstErr
}

func (n *Node) nextDirtyGroup() int {
	best := -1
	for gi := range n.dirtyGroups {
		if best < 0 || gi < best {
			best = gi
		}
	}
	return best
}

// processTransition fires the delta plans for one visible row transition.
// Plans whose head belongs to skipGroup (or to any group already marked
// dirty) are suppressed: their predicates will be rebuilt by recompute.
func (n *Node) processTransition(tr delta, skipGroup int) error {
	n.stats.DeltasProcessed++
	if tr.tuple.Pred == InvokeSolverPred && tr.sign > 0 {
		n.fireInvokeSolver()
		return nil
	}
	if n.ground != nil {
		n.noteGroundDelta(tr)
	}
	if tr.sign < 0 {
		n.markDirtyFor(tr.tuple.Pred)
	}
	var firstErr error
	for _, p := range n.prog.plans[tr.tuple.Pred] {
		if gi, ok := n.prog.groupOfHead[p.ruleIdx]; ok && (gi == skipGroup || n.dirtyGroups[gi]) {
			continue
		}
		if err := n.runPlan(p, tr); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return firstErr
}

func (n *Node) fireInvokeSolver() {
	// During replay the solver never runs: the log carries the outcome the
	// live node materialized (a solve record, or nothing for an infeasible
	// solve) bracketed by an invoke-done marker; replayInvoke consumes it.
	if n.replaying {
		n.replayInvoke()
		return
	}
	if n.OnInvokeSolver != nil {
		n.OnInvokeSolver(n)
	} else if res, err := n.solveLocked(SolveOptions{}); err != nil {
		n.LastError = err
	} else {
		n.LastSolveResult = res
	}
	// Close the log bracket even when the solve failed or was infeasible:
	// replay must know the invoke finished without materializing.
	n.walInvokeDone()
}

// route delivers a derived head tuple: locally enqueued when the location
// attribute matches this node (or the table has none), otherwise serialized
// and sent over the transport.
func (n *Node) route(tuple Tuple, sign int) error {
	ti := n.prog.res.Tables[tuple.Pred]
	if ti != nil && ti.LocCol >= 0 {
		loc := tuple.Vals[ti.LocCol]
		addr := locAddr(loc)
		if addr != n.Addr {
			if n.tr == nil {
				return everrf(tuple.Pred, "tuple addressed to %q but node has no transport", addr)
			}
			if n.replaying {
				// Replayed derivations do not retransmit — the peers got the
				// live sends (or will reconcile via resync) — but the sent
				// mirror must be rebuilt: it is this node's memory of what it
				// asserted remotely, and the divergence detector needs it.
				if t := n.tables[tuple.Pred]; t != nil && !t.event {
					n.repl.noteSent(addr, tuple.Pred, tuple.Vals, sign)
				}
				return nil
			}
			payload, err := encodeDelta(tuple.Pred, tuple.Vals, sign)
			if err != nil {
				return err
			}
			if t := n.tables[tuple.Pred]; t != nil && !t.event {
				// Mirror what this node asserts at the peer, whether or not
				// the datagram survives the trip — the divergence between
				// this mirror and the peer's receive-side mirror is exactly
				// what the anti-entropy resync heals.
				n.repl.noteSent(addr, tuple.Pred, tuple.Vals, sign)
			}
			n.stats.TuplesSent++
			n.outbox = append(n.outbox, outMsg{to: addr, payload: payload})
			return nil
		}
	}
	n.enqueue(delta{tuple, sign, true})
	return nil
}

// locAddr renders a location value as a transport address.
func locAddr(v colog.Value) string {
	if v.Kind == colog.KindString {
		return v.S
	}
	return v.String()
}

// planRun is one node's mutable state for one shared plan. Delta
// evaluation under the node lock is single-threaded and never re-enters
// the same plan, so one binding frame per plan eliminates all per-row
// environment allocations; idx memoizes each probing join step's table
// index until the table drops its indexes.
type planRun struct {
	frame *bindFrame
	idx   []stepIndex // parallel to plan.steps
	rc    *recompute  // set while a DRed recompute runs the plan
}

// stepIndex is a join step's memoized index and the table's indexGen it
// was taken at.
type stepIndex struct {
	ix  *tableIndex
	gen uint64
}

// planRun returns the node's state for p, allocating it on first firing.
func (n *Node) planRun(p *plan) *planRun {
	if n.runs == nil {
		n.runs = make([]planRun, n.prog.nplans)
	}
	run := &n.runs[p.id]
	if run.frame == nil {
		run.frame = newBindFrame(p.slots)
		run.idx = make([]stepIndex, len(p.steps))
	}
	return run
}

// runPlan executes one compiled delta plan for a visible transition. The
// node's frame for the plan replaces per-row environment maps: bindings are
// trailed and undone on backtrack, so plan execution allocates only for
// emitted head tuples.
func (n *Node) runPlan(p *plan, d delta) error {
	run := n.planRun(p)
	f := run.frame
	f.reset()
	if !matchRow(p.steps[0].argOps, d.tuple.Vals, f) {
		return nil
	}
	return n.execSteps(p, run, 1, d)
}

func (n *Node) execSteps(p *plan, run *planRun, idx int, d delta) error {
	f := run.frame
	if idx == len(p.steps) {
		if run.rc != nil {
			vals, err := p.project(f)
			if err == nil {
				run.rc.out = append(run.rc.out, vals)
			}
			return err
		}
		return n.emitHead(p, f, d.sign)
	}
	step := &p.steps[idx]
	switch step.kind {
	case stepJoin:
		if rows, ok := run.rc.rows(step.atom.Pred); ok {
			for _, rowVals := range rows {
				if err := n.execJoinRow(p, run, idx, d, rowVals); err != nil {
					return err
				}
			}
			return nil
		}
		t := n.tables[step.atom.Pred]
		if t == nil {
			return everrf(step.atom.Pred, "unknown predicate in join")
		}
		if len(step.boundCols) > 0 {
			memo := &run.idx[idx]
			if memo.ix == nil || memo.gen != t.indexGen {
				memo.ix = t.ensureIndexNamed(step.idxKey, step.boundCols)
				memo.gen = t.indexGen
			}
			key := f.appendProbeKey(step.probeOps)
			for _, r := range memo.ix.probeBytes(key) {
				if err := n.execJoinRow(p, run, idx, d, r.vals); err != nil {
					return err
				}
			}
		} else {
			for _, rowVals := range t.snapshotUnordered() {
				if err := n.execJoinRow(p, run, idx, d, rowVals); err != nil {
					return err
				}
			}
		}
		// Self-join deletion fix: a negative delta's tuple is already out of
		// the store, but derivations pairing it with itself must still be
		// retracted.
		if d.sign < 0 && step.atom.Pred == d.tuple.Pred {
			return n.execJoinRow(p, run, idx, d, d.tuple.Vals)
		}
		return nil
	case stepFilter:
		v, err := evalGround(step.cond, f)
		if err != nil {
			return everrf(ruleName(p.rule), "condition %s: %v", step.cond, err)
		}
		if v.Kind != colog.KindBool {
			return everrf(ruleName(p.rule), "condition %s evaluated to non-boolean %s", step.cond, v)
		}
		if !v.B {
			return nil
		}
		return n.execSteps(p, run, idx+1, d)
	case stepBind, stepAssign:
		v, err := evalGround(step.expr, f)
		if err != nil {
			return everrf(ruleName(p.rule), "binding %s: %v", step.bindVar, err)
		}
		if step.rebind {
			// Reassignment of a bound variable: restore the previous value
			// on backtrack instead of trailing a fresh binding.
			prev := f.vals[step.slot]
			f.vals[step.slot] = v
			err := n.execSteps(p, run, idx+1, d)
			f.vals[step.slot] = prev
			return err
		}
		f.bind(step.slot, v)
		return n.execSteps(p, run, idx+1, d)
	}
	return everrf(ruleName(p.rule), "unknown plan step")
}

// execJoinRow runs one candidate row through a join step: the pushdown
// prefilter rejects most non-matching rows against the raw values before
// the frame is touched, then the full op list binds and checks as before.
func (n *Node) execJoinRow(p *plan, run *planRun, idx int, d delta, rowVals []colog.Value) error {
	step := &p.steps[idx]
	f := run.frame
	if !f.rowPrefilter(step.preCmps, len(step.argOps), rowVals) {
		return nil
	}
	m := f.mark()
	var err error
	if matchRow(step.argOps, rowVals, f) {
		err = n.execSteps(p, run, idx+1, d)
	}
	f.undo(m)
	return err
}

// emitHead projects the binding onto the rule head. Aggregate heads update
// incremental aggregate state; plain heads route the tuple directly.
func (n *Node) emitHead(p *plan, f *bindFrame, sign int) error {
	if len(p.headAggs) > 0 {
		return n.updateAggregate(p, f, sign)
	}
	vals, err := p.project(f)
	if err != nil {
		return err
	}
	return n.route(Tuple{p.rule.Head.Pred, vals}, sign)
}

// project evaluates a plain head over the binding.
func (p *plan) project(f *bindFrame) ([]colog.Value, error) {
	vals := make([]colog.Value, len(p.headOps))
	for i := range p.headOps {
		op := &p.headOps[i]
		if op.slot >= 0 {
			vals[i] = f.vals[op.slot]
			continue
		}
		v, err := evalGround(op.term, f)
		if err != nil {
			return nil, everrf(ruleName(p.rule), "head argument %d: %v", i, err)
		}
		vals[i] = v
	}
	return vals, nil
}

// matchAtom unifies an atom pattern with ground values, extending env.
func matchAtom(a *colog.Atom, vals []colog.Value, env map[string]colog.Value) bool {
	if len(a.Args) != len(vals) {
		return false
	}
	for i, arg := range a.Args {
		switch t := arg.(type) {
		case *colog.VarTerm:
			if bound, ok := env[t.Name]; ok {
				if !bound.Equal(vals[i]) {
					return false
				}
			} else {
				env[t.Name] = vals[i]
			}
		case *colog.ConstTerm:
			if !t.Val.Equal(vals[i]) {
				return false
			}
		default:
			// Expression argument: must be fully bound, then compared.
			if !termBound(arg, mapEnv(env)) {
				return false
			}
			v, err := evalGround(arg, mapEnv(env))
			if err != nil || !v.Equal(vals[i]) {
				return false
			}
		}
	}
	return true
}

// snapshotUnordered returns visible rows for join scans (hot path) in the
// stable arrival order, so delta evaluation — and therefore the arrival
// order of derived tuples — is deterministic. The result is memoized
// between table mutations; callers must not append to it without re-slicing
// (the self-join fix uses a full slice expression).
func (t *table) snapshotUnordered() [][]colog.Value {
	return t.snapshotStable()
}

// Dump renders all tables for debugging.
func (n *Node) Dump() string {
	s := fmt.Sprintf("node %s:\n", n.Addr)
	for _, name := range sortedTableNames(n.tables) {
		t := n.tables[name]
		if t.size() == 0 {
			continue
		}
		for _, vals := range t.snapshot() {
			s += "  " + Tuple{name, vals}.String() + "\n"
		}
	}
	return s
}

func sortedTableNames(m map[string]*table) []string {
	names := make([]string, 0, len(m))
	for k := range m {
		names = append(names, k)
	}
	for i := 1; i < len(names); i++ {
		for j := i; j > 0 && names[j] < names[j-1]; j-- {
			names[j], names[j-1] = names[j-1], names[j]
		}
	}
	return names
}
