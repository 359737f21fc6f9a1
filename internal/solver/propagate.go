package solver

// propagate.go is the event-driven propagation engine, the search core
// behind Model.Solve. Instead of invalidating every memoized interval after
// each assignment it keeps three event-driven structures:
//
//   - an incremental interval store: expression intervals stay valid at all
//     times; a domain change marks the variable's DAG node dirty, and a
//     min-heap ordered by node ID (a topological order, since arguments are
//     always created before their parents) recomputes exactly the nodes
//     whose support changed. An integer n-ary sum takes a changed argument
//     by delta — old interval out, new one in — instead of re-adding all of
//     them. Overwritten intervals go on a trail, so backtracking restores
//     them in O(changed) without recomputation.
//   - dedicated incremental linear propagators: each recognized
//     sum(c_i*x_i) op K constraint caches per-term contribution bounds and
//     their running totals; a domain event updates the residuals in O(1)
//     per watching constraint instead of rescanning all terms.
//   - a propagator queue (Options.Fixpoint): domain events schedule the
//     propagators watching the variable — linear residual tightening plus
//     table propagators that enforce domain consistency on small binary
//     constraints — and the queue drains to fixpoint.
//
// Trace contract: in its default configuration the engine takes a fixed
// single-pass schedule of pruning decisions per node (static branching
// order; linear propagation, constraint falsity, bound cut, forward
// checking). The resulting search traces — solutions, objectives, node and
// failure counts, even under node budgets — are pinned to
// testdata/engine_trace.golden, recorded from the seed forward-checking
// core this engine replaced, and to the grounded paper COPs of
// core/testdata/cop_trace.golden; brute force (bruteforce.go) remains the
// live oracle for status and optimum. Options.Fixpoint and
// Options.ActivityOrder opt into strictly stronger pruning and
// conflict-driven variable ordering, and so leave that trace.
//
// Four mechanisms make a node cheaper without changing any decision:
//
//   - Root-entailment disposal. A constraint whose interval is already true
//     before the search is out of the solve: its linear propagator gets no
//     events, forward checking skips it, and DAG nodes that only such
//     constraints read are never recomputed (ivStore.dispose). Interval
//     evaluation is inclusion-monotone and domains only shrink, so it stays
//     true in every search state; restarts start from the same root.
//   - The slack test. A linear term can be tightened only when the slack on
//     a checked side is below the term's contribution span, and a span only
//     shrinks below the root. While every checked slack is at least the
//     widest root span, propagateOne returns after its failure tests.
//   - Delta sums. An OpSum over integer-valued arguments whose root bounds
//     add up, in magnitude, to less than 2^50 keeps every partial sum an
//     exact integer, so old-out/new-in equals a fresh left-to-right sum bit
//     for bit. Any other sum, or a delta involving a non-finite value, is
//     recomputed in full.
//   - View narrowing. Domains are sorted and immutable, so a bounds
//     narrowing is a subslice view of the current domain; forward checking
//     collects kept values in a reusable buffer and copies only a kept set
//     with gaps. Apart from first-use caches, a search node allocates
//     nothing (core's TestSearchAllocBudget).
//
// Linear residual bounds are maintained by adding and subtracting per-term
// deltas, and the slack test compares them to root spans. On the
// integer-valued data Cologne grounds both are exact; models with
// irrational coefficients may see ulp-level rounding in the sums.

import (
	"math"
	"sort"
)

// ---------------------------------------------------------------- shapes

// linShape is a recognized linear constraint sum(c_i*x_i) op K with terms in
// ascending variable-ID order.
type linShape struct {
	terms []linTerm
	op    Op // OpLe, OpGe or OpEq
	k     float64
	ci    int // constraint index
}

// linRef locates one term of one linear constraint from a variable.
type linRef struct {
	con, term int32
}

// prepared caches per-model search metadata shared by every Solve call:
// the expression DAG in evaluable form, parent links for event propagation,
// constraint/variable cross-indexes, and the propagator-shape classification
// of every posted constraint. The grounder calls Model.Prepare after posting
// constraints so classification is part of grounding; Solve falls back to
// preparing lazily for hand-built models.
type prepared struct {
	nExpr  int
	nCons  int
	rev    int64
	linMin int // linear attachment threshold the lin/linByVar tables were built with

	exprs     []*Expr   // expression nodes by ID (nil when unreachable)
	parents   [][]int32 // expression ID -> parent expression IDs
	conRoot   []int32   // constraint index -> root expression ID
	isConRoot []int32   // expression ID -> constraint index + 1 (0 = none)
	varNode   []int32   // variable ID -> its OpVar expression ID
	varCons   [][]int32 // variable ID -> constraint indices (deduplicated)
	conVars   [][]int32 // constraint index -> distinct variable IDs

	lin      []linShape
	linByVar [][]linRef

	// intVal marks the nodes whose interval bounds are integers under any
	// domains (integer constants, variables, and the integer-closed
	// operators over them): an OpSum over such arguments can be updated by
	// delta exactly (see ivStore.touch).
	intVal []bool

	shapes map[string]int // shape name -> constraint count
}

// linearMinTermsDefault is the attachment threshold used when
// Options.LinearMinTerms is zero: multi-term linear constraints with fewer
// terms run under generic forward checking instead of a dedicated
// propagator. Chosen from BenchmarkAblationLinearPropagation, where the
// 3-term exactly-one sums' unit-forcing cuts ~36% of the nodes but the
// propagator's update/trail bookkeeping eats the entire saving on both
// engines, while wide capacity sums still win clearly.
//
// Single-term linears are exempt from the threshold (see linAttached): they
// tighten a variable's domain once near the root for O(1) per-node upkeep,
// and dropping them costs BenchmarkFollowSunPerLinkCOP ~40%.
const linearMinTermsDefault = 4

// resolveLinearMinTerms maps the Options field to an effective threshold.
func resolveLinearMinTerms(n int) int {
	if n <= 0 {
		return linearMinTermsDefault
	}
	return n
}

// linAttached reports whether a recognized linear shape with the given term
// count gets a dedicated propagator under threshold linMin.
func linAttached(nTerms, linMin int) bool {
	return nTerms == 1 || nTerms >= linMin
}

// prepare builds (or returns the cached) search metadata with the default
// linear attachment threshold. The cache is invalidated when constraints,
// variables, or expression nodes were added since it was built; constants
// patched in place (Model.PatchConst) refresh just the linear shapes that
// cover them. Not safe for concurrent use, matching Require/Solve.
func (m *Model) prepare() *prepared { return m.prepareWith(0) }

// prepareWith is prepare with an explicit Options.LinearMinTerms value; a
// cached build with a different effective threshold is rebuilt (the linear
// tables are threshold-dependent, the rest of the metadata is not).
func (m *Model) prepareWith(minTerms int) *prepared {
	linMin := resolveLinearMinTerms(minTerms)
	if m.prep != nil && m.prep.rev == m.rev && m.prep.nExpr == m.NumExprNodes() && m.prep.linMin == linMin {
		if len(m.patched) > 0 {
			if !m.prep.refreshPatched(m) {
				m.prep = nil
				return m.prepareWith(minTerms)
			}
			m.patched = m.patched[:0]
		}
		return m.prep
	}
	m.patched = m.patched[:0]
	p := &prepared{
		nExpr:  m.NumExprNodes(),
		nCons:  len(m.constraints),
		rev:    m.rev,
		linMin: linMin,
		shapes: map[string]int{},
	}
	p.exprs = make([]*Expr, p.nExpr)
	p.parents = make([][]int32, p.nExpr)
	var walk func(e *Expr)
	walk = func(e *Expr) {
		if p.exprs[e.ID] != nil {
			return
		}
		p.exprs[e.ID] = e
		for _, a := range e.Args {
			walk(a)
			p.parents[a.ID] = append(p.parents[a.ID], int32(e.ID))
		}
	}
	p.varNode = make([]int32, len(m.vars))
	for i, v := range m.vars {
		p.varNode[i] = int32(v.expr.ID)
		walk(v.expr)
	}
	for _, c := range m.constraints {
		walk(c)
	}
	if m.objective != nil {
		walk(m.objective)
	}
	p.intVal = make([]bool, p.nExpr)
	for id, e := range p.exprs {
		if e != nil {
			p.intVal[id] = p.integerValued(e)
		}
	}

	p.conRoot = make([]int32, len(m.constraints))
	p.isConRoot = make([]int32, p.nExpr)
	p.varCons = make([][]int32, len(m.vars))
	p.conVars = make([][]int32, len(m.constraints))
	p.linByVar = make([][]linRef, len(m.vars))
	scratch := make([]int, 0, 16)
	for ci, c := range m.constraints {
		p.conRoot[ci] = int32(c.ID)
		if p.isConRoot[c.ID] == 0 {
			p.isConRoot[c.ID] = int32(ci) + 1
		}
		scratch = c.Vars(scratch[:0])
		seen := make(map[int]struct{}, len(scratch))
		for _, vid := range scratch {
			if _, ok := seen[vid]; ok {
				continue
			}
			seen[vid] = struct{}{}
			p.varCons[vid] = append(p.varCons[vid], int32(ci))
			p.conVars[ci] = append(p.conVars[ci], int32(vid))
		}
		p.shapes[classifyShape(c, len(p.conVars[ci]))]++
		terms, op, k, ok := extractLinear(c)
		if !ok || len(terms) == 0 || !linAttached(len(terms), p.linMin) {
			continue
		}
		li := int32(len(p.lin))
		p.lin = append(p.lin, linShape{terms: terms, op: op, k: k, ci: ci})
		for ti, t := range terms {
			p.linByVar[t.v.ID] = append(p.linByVar[t.v.ID], linRef{li, int32(ti)})
		}
	}
	m.prep = p
	return p
}

// refreshPatched re-extracts the linear shapes of the constraints covering
// constants patched in place by Model.PatchConst. It returns false when a
// patched value changed a shape structurally — a coefficient reaching or
// leaving zero adds or drops terms — in which case the caller rebuilds the
// whole metadata instead.
func (p *prepared) refreshPatched(m *Model) bool {
	// Climb parent links from each patched constant to every expression
	// covering it.
	covered := make(map[int32]bool, len(m.patched)*4)
	var stack []int32
	for _, id := range m.patched {
		if int(id) < len(p.exprs) && p.exprs[id] != nil && !covered[id] {
			covered[id] = true
			stack = append(stack, id)
		}
	}
	flipped := false // a patched constant became, or stopped being, an integer
	for len(stack) > 0 {
		id := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if p.exprs[id].Op == OpConst && p.intVal[id] != p.integerValued(p.exprs[id]) {
			flipped = true
		}
		for _, pid := range p.parents[id] {
			if !covered[pid] {
				covered[pid] = true
				stack = append(stack, pid)
			}
		}
	}
	if flipped {
		// Re-derive integrality over everything covering a patched
		// constant, children before parents.
		ids := make([]int32, 0, len(covered))
		for id := range covered {
			ids = append(ids, id)
		}
		sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
		for _, id := range ids {
			p.intVal[id] = p.integerValued(p.exprs[id])
		}
	}
	ciToLin := map[int]int{}
	for li, ls := range p.lin {
		ciToLin[ls.ci] = li
	}
	for ci, root := range p.conRoot {
		if !covered[root] {
			continue
		}
		terms, op, k, ok := extractLinear(m.constraints[ci])
		li, had := ciToLin[ci]
		isLin := ok && len(terms) > 0 && linAttached(len(terms), p.linMin)
		if isLin != had {
			return false // shape appeared or vanished (or crossed the
			// attachment threshold): rebuild
		}
		if !isLin {
			continue // non-linear shapes read constants live
		}
		ls := &p.lin[li]
		if op != ls.op || len(terms) != len(ls.terms) {
			return false
		}
		for i := range terms {
			if terms[i].v != ls.terms[i].v {
				return false // term structure shifted: linByVar refs are stale
			}
		}
		ls.terms, ls.k = terms, k
	}
	return true
}

// integerValued reports whether e's interval bounds are integers whatever
// the domains, given its arguments' intVal marks. Division, averages, the
// standard deviation and if-then-else are excluded: the first three can be
// fractional, and an if-then-else can switch branches when an emptied
// domain reverses an interval, so its value is not bounded by its root
// interval.
func (p *prepared) integerValued(e *Expr) bool {
	switch e.Op {
	case OpConst:
		return e.K == math.Trunc(e.K)
	case OpVar, OpCountDistinct:
		return true
	case OpAdd, OpSub, OpMul, OpNeg, OpAbs, OpMin, OpMax, OpSum, OpSumAbs:
		for _, a := range e.Args {
			if !p.intVal[a.ID] {
				return false
			}
		}
		return true
	}
	return e.Op.IsBool()
}

// classifyShape names the propagator shape a constraint grounds into.
func classifyShape(c *Expr, nVars int) string {
	if terms, _, _, ok := extractLinear(c); ok {
		if len(terms) == 0 {
			return "const"
		}
		return "linear"
	}
	switch nVars {
	case 0:
		return "const"
	case 1:
		return "unary"
	case 2:
		return "binary"
	default:
		return "generic"
	}
}

// ShapeStats returns how many posted constraints ground into each propagator
// shape (linear, unary, binary, generic, const). The map must not be
// mutated.
func (m *Model) ShapeStats() map[string]int {
	return m.prepare().shapes
}

// Prepare classifies the posted constraints into propagator shapes and
// builds the search metadata the propagation engine runs on. It is optional
// — Solve prepares lazily — but the grounder calls it so classification
// happens at grounding time and repeated solves reuse it.
func (m *Model) Prepare() { m.prepare() }

// ------------------------------------------------------ incremental store

type domSave struct {
	vid int32
	dom Domain
}

type ivSave struct {
	id int32
	iv Interval
}

// ivStore keeps an always-valid interval per expression node under the
// current domains. Domain changes mark the variable's node dirty; flush
// recomputes dirty nodes in ascending ID order (children before parents,
// since arguments are created before the expressions using them) and
// propagates dirtiness only where a value actually changed. Every overwrite
// — domain or interval — is trailed, so undoTo restores a prior search state
// exactly, in time proportional to what changed.
type ivStore struct {
	p    *prepared
	dom  []Domain
	memo []Interval

	flag []uint8    // per node: nodeQueued, nodeDead, nodeDeltaSum, nodePending
	pend []Interval // per node: the delta-updated value of a nodePending sum
	heap []int32

	domTrail []domSave
	ivTrail  []ivSave

	// onRestoreDom maintains the searcher's assigned flags during undo.
	onRestoreDom func(vid int, d Domain)

	// watchCons makes flush record the first constraint whose interval
	// turns definitely false (fixpoint mode's free failure detection).
	watchCons bool
	failedCon int32 // constraint index, -1 when none
}

// Per-node store flags.
const (
	// nodeQueued: the node is in the dirty heap.
	nodeQueued uint8 = 1 << iota
	// nodeDead: nothing the search reads depends on the node in this solve
	// (see dispose), so it is never queued and its interval stays at its
	// root value.
	nodeDead
	// nodeDeltaSum: an integer-valued OpSum whose partial sums are exact in
	// this solve, so flush updates it by delta (see touch).
	nodeDeltaSum
	// nodePending: a queued nodeDeltaSum whose new value is already in pend.
	nodePending
)

// deltaExact bounds the magnitudes for which integer sums are exact by
// delta: 2^50 leaves room below 2^53 for the 0/1 of every boolean argument
// besides (see exactSum).
const deltaExact = 1 << 50

func (st *ivStore) iv(e *Expr) Interval    { return st.memo[e.ID] }
func (st *ivStore) domainOf(v *Var) Domain { return st.dom[v.ID] }

func newIvStore(m *Model, p *prepared) *ivStore {
	st := &ivStore{
		p:         p,
		dom:       make([]Domain, len(m.vars)),
		memo:      make([]Interval, p.nExpr),
		flag:      make([]uint8, p.nExpr),
		failedCon: -1,
	}
	for i, v := range m.vars {
		st.dom[i] = v.Dom
	}
	// Initial bottom-up evaluation: ascending ID order is topological.
	for id, e := range p.exprs {
		if e != nil {
			st.memo[id] = st.recompute(e)
		}
	}
	for id, e := range p.exprs {
		if e != nil && e.Op == OpSum && st.exactSum(e) {
			if st.pend == nil {
				st.pend = make([]Interval, p.nExpr)
			}
			st.flag[id] |= nodeDeltaSum
		}
	}
	return st
}

// exactSum reports whether every partial sum of the OpSum e stays an exact
// integer for the whole solve, so that flush may update it by delta: its
// arguments are integer-valued and their root bounds add up, in magnitude,
// to less than deltaExact. Domains only shrink, so each argument stays
// inside its root interval (a boolean, in {0,1}), and old-out/new-in then
// equals a fresh left-to-right sum bit for bit.
func (st *ivStore) exactSum(e *Expr) bool {
	mass := 0.0
	for _, a := range e.Args {
		if !st.p.intVal[a.ID] {
			return false
		}
		iv := st.memo[a.ID]
		mass += math.Max(math.Abs(iv.Lo), math.Abs(iv.Hi))
	}
	return mass < deltaExact
}

// dispose takes every constraint whose root interval is already true out
// of the solve: only nodes that a constraint not yet entailed or the
// objective reads stay live, and flush never queues the others. Interval
// evaluation is inclusion-monotone and domains only shrink below the root,
// so an entailed constraint stays true in every search state; nothing it
// alone reads can change a pruning decision.
func (st *ivStore) dispose(obj *Expr) {
	p := st.p
	for id := range st.flag {
		st.flag[id] |= nodeDead
	}
	for _, root := range p.conRoot {
		if !st.memo[root].True() {
			st.flag[root] &^= nodeDead
		}
	}
	if obj != nil {
		st.flag[obj.ID] &^= nodeDead
	}
	// Descending ID order visits parents before their arguments.
	for id := len(p.exprs) - 1; id >= 0; id-- {
		if e := p.exprs[id]; e != nil && st.flag[id]&nodeDead == 0 {
			for _, a := range e.Args {
				st.flag[a.ID] &^= nodeDead
			}
		}
	}
}

// recompute computes e's interval reading children straight from the memo
// table: the same arithmetic as computeIv, with the operators hot in
// grounded models inlined to skip the ivSource indirection in the flush
// loop. Falling back to computeIv keeps the two paths value-identical.
func (st *ivStore) recompute(e *Expr) Interval {
	memo := st.memo
	switch e.Op {
	case OpConst:
		return Point(e.K)
	case OpVar:
		d := st.dom[e.Var.ID]
		if d.Empty() {
			return Interval{math.Inf(1), math.Inf(-1)}
		}
		return Interval{float64(d.Min()), float64(d.Max())}
	case OpAdd:
		a, b := memo[e.Args[0].ID], memo[e.Args[1].ID]
		return Interval{a.Lo + b.Lo, a.Hi + b.Hi}
	case OpSub:
		a, b := memo[e.Args[0].ID], memo[e.Args[1].ID]
		return Interval{a.Lo - b.Hi, a.Hi - b.Lo}
	case OpMul:
		return mulIv(memo[e.Args[0].ID], memo[e.Args[1].ID])
	case OpNeg:
		a := memo[e.Args[0].ID]
		return Interval{-a.Hi, -a.Lo}
	case OpAbs:
		return absIv(memo[e.Args[0].ID])
	case OpSum:
		lo, hi := 0.0, 0.0
		for _, arg := range e.Args {
			a := memo[arg.ID]
			lo += a.Lo
			hi += a.Hi
		}
		return Interval{lo, hi}
	case OpSumAbs:
		lo, hi := 0.0, 0.0
		for _, arg := range e.Args {
			a := absIv(memo[arg.ID])
			lo += a.Lo
			hi += a.Hi
		}
		return Interval{lo, hi}
	case OpEq:
		a, b := memo[e.Args[0].ID], memo[e.Args[1].ID]
		return boolIv(a.Fixed() && b.Fixed() && a.Lo == b.Lo, a.Hi < b.Lo || b.Hi < a.Lo)
	case OpNe:
		a, b := memo[e.Args[0].ID], memo[e.Args[1].ID]
		return boolIv(a.Hi < b.Lo || b.Hi < a.Lo, a.Fixed() && b.Fixed() && a.Lo == b.Lo)
	case OpLt:
		a, b := memo[e.Args[0].ID], memo[e.Args[1].ID]
		return boolIv(a.Hi < b.Lo, a.Lo >= b.Hi)
	case OpLe:
		a, b := memo[e.Args[0].ID], memo[e.Args[1].ID]
		return boolIv(a.Hi <= b.Lo, a.Lo > b.Hi)
	case OpGt:
		a, b := memo[e.Args[0].ID], memo[e.Args[1].ID]
		return boolIv(a.Lo > b.Hi, a.Hi <= b.Lo)
	case OpGe:
		a, b := memo[e.Args[0].ID], memo[e.Args[1].ID]
		return boolIv(a.Lo >= b.Hi, a.Hi < b.Lo)
	case OpAnd:
		a, b := memo[e.Args[0].ID], memo[e.Args[1].ID]
		return boolIv(a.True() && b.True(), a.False() || b.False())
	case OpOr:
		a, b := memo[e.Args[0].ID], memo[e.Args[1].ID]
		return boolIv(a.True() || b.True(), a.False() && b.False())
	case OpNot:
		a := memo[e.Args[0].ID]
		return boolIv(a.False(), a.True())
	case OpITE:
		c := memo[e.Args[0].ID]
		if c.True() {
			return memo[e.Args[1].ID]
		}
		if c.False() {
			return memo[e.Args[2].ID]
		}
		return memo[e.Args[1].ID].Hull(memo[e.Args[2].ID])
	}
	return computeIv(e, st)
}

// setDom installs a new domain for vid, trailing the old one and marking the
// variable's DAG node dirty.
func (st *ivStore) setDom(vid int, d Domain) {
	st.domTrail = append(st.domTrail, domSave{int32(vid), st.dom[vid]})
	st.dom[vid] = d
	st.markDirty(st.p.varNode[vid])
}

func (st *ivStore) markDirty(id int32) {
	if st.flag[id]&(nodeQueued|nodeDead) != 0 {
		return
	}
	st.flag[id] |= nodeQueued
	st.heap = append(st.heap, id)
	// Sift up.
	i := len(st.heap) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if st.heap[parent] <= st.heap[i] {
			break
		}
		st.heap[parent], st.heap[i] = st.heap[i], st.heap[parent]
		i = parent
	}
}

func (st *ivStore) popDirty() int32 {
	top := st.heap[0]
	last := len(st.heap) - 1
	st.heap[0] = st.heap[last]
	st.heap = st.heap[:last]
	// Sift down.
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		small := i
		if l < last && st.heap[l] < st.heap[small] {
			small = l
		}
		if r < last && st.heap[r] < st.heap[small] {
			small = r
		}
		if small == i {
			break
		}
		st.heap[i], st.heap[small] = st.heap[small], st.heap[i]
		i = small
	}
	return top
}

// flush recomputes every dirty node, in topological (ID) order, trailing and
// propagating only actual changes.
func (st *ivStore) flush() {
	for len(st.heap) > 0 {
		id := st.popDirty()
		f := st.flag[id]
		st.flag[id] = f &^ (nodeQueued | nodePending)
		e := st.p.exprs[id]
		if e == nil {
			continue
		}
		var niv Interval
		if f&nodePending != 0 {
			niv = st.pend[id]
		} else {
			niv = st.recompute(e)
		}
		old := st.memo[id]
		if niv == old {
			continue
		}
		st.ivTrail = append(st.ivTrail, ivSave{id, old})
		st.memo[id] = niv
		for _, pid := range st.p.parents[id] {
			st.touch(pid, old, niv)
		}
		if st.watchCons && niv.False() && st.failedCon < 0 {
			if ci := st.p.isConRoot[id]; ci != 0 {
				st.failedCon = ci - 1
			}
		}
	}
}

// touch queues parent pid after one of its arguments changed from old to
// niv. A delta sum takes the change by subtracting old and adding niv to
// its current (or already pending) value, unless a value involved is not
// finite and below deltaExact — an emptied domain reverses an interval to
// infinities — or the node is already queued for a full recompute; then it
// is recomputed in full when popped.
func (st *ivStore) touch(pid int32, old, niv Interval) {
	f := st.flag[pid]
	if f&nodeDead != 0 {
		return
	}
	if f&nodeDeltaSum != 0 && (f&nodeQueued == 0 || f&nodePending != 0) {
		base := st.memo[pid]
		if f&nodePending != 0 {
			base = st.pend[pid]
		}
		if exactIv(base) && exactIv(old) && exactIv(niv) {
			st.pend[pid] = Interval{base.Lo - old.Lo + niv.Lo, base.Hi - old.Hi + niv.Hi}
			st.flag[pid] |= nodePending
			st.markDirty(pid)
			return
		}
	}
	st.flag[pid] &^= nodePending
	st.markDirty(pid)
}

// exactIv reports whether both bounds are finite with magnitude below
// deltaExact (false for NaN).
func exactIv(iv Interval) bool {
	return math.Abs(iv.Lo) < deltaExact && math.Abs(iv.Hi) < deltaExact
}

// storeMark captures the trail positions for backtracking.
type storeMark struct {
	dom, iv int
}

func (st *ivStore) mark() storeMark {
	return storeMark{len(st.domTrail), len(st.ivTrail)}
}

// undoTo restores domains and intervals to the marked state. Nodes still
// queued as dirty are harmless: recomputing them against the restored
// children reproduces the restored value. The fixpoint failure flag is
// cleared — a failure inside the undone region is gone by construction.
func (st *ivStore) undoTo(mk storeMark) {
	for len(st.ivTrail) > mk.iv {
		s := st.ivTrail[len(st.ivTrail)-1]
		st.ivTrail = st.ivTrail[:len(st.ivTrail)-1]
		st.memo[s.id] = s.iv
	}
	for len(st.domTrail) > mk.dom {
		s := st.domTrail[len(st.domTrail)-1]
		st.domTrail = st.domTrail[:len(st.domTrail)-1]
		st.dom[s.vid] = s.dom
		if st.onRestoreDom != nil {
			st.onRestoreDom(int(s.vid), s.dom)
		}
	}
	st.failedCon = -1
}

// ------------------------------------------------- incremental linear props

type linSave struct {
	con, term            int32
	lo, hi, sumLo, sumHi float64
}

// linCon is one linear constraint with cached residual bounds: lo/hi hold
// each term's contribution interval under the current domains, sumLo/sumHi
// their totals. A domain event updates the caches by delta, so the
// propagator's feasibility test is O(1) and its tightening pass never
// rescans unchanged terms to rebuild the sums. span is the widest term
// contribution interval at the root: while the slack on every checked side
// is at least span, no term can be tightened (see propagateOne). An
// entailed constraint is out of the solve: no domain event reaches it.
type linCon struct {
	terms        []linTerm
	op           Op
	k            float64
	ci           int32
	lo, hi       []float64
	sumLo, sumHi float64
	span         float64
	entailed     bool
}

type linEngine struct {
	cons  []linCon
	byVar [][]linRef
	trail []linSave
}

func termBounds(coef float64, d Domain) (float64, float64) {
	lo, hi := float64(d.Min())*coef, float64(d.Max())*coef
	if lo > hi {
		lo, hi = hi, lo
	}
	return lo, hi
}

func newLinEngine(p *prepared, dom []Domain) *linEngine {
	le := &linEngine{
		cons:  make([]linCon, len(p.lin)),
		byVar: p.linByVar,
	}
	for i, ls := range p.lin {
		c := &le.cons[i]
		c.terms, c.op, c.k, c.ci = ls.terms, ls.op, ls.k, int32(ls.ci)
		c.lo = make([]float64, len(ls.terms))
		c.hi = make([]float64, len(ls.terms))
		for ti, t := range ls.terms {
			c.lo[ti], c.hi[ti] = termBounds(t.coef, dom[t.v.ID])
			c.sumLo += c.lo[ti]
			c.sumHi += c.hi[ti]
			c.span = math.Max(c.span, c.hi[ti]-c.lo[ti])
		}
	}
	return le
}

// dropEntailed takes the constraints whose root interval in st is already
// true out of the solve (see ivStore.dispose): an entailed linear
// constraint can neither fail nor tighten a domain.
func (le *linEngine) dropEntailed(st *ivStore) {
	for i := range le.cons {
		c := &le.cons[i]
		c.entailed = st.memo[st.p.conRoot[c.ci]].True()
	}
}

// update refreshes the cached contribution of vid in every watching
// constraint after its domain changed to d, trailing the old values.
func (le *linEngine) update(vid int, d Domain) {
	for _, ref := range le.byVar[vid] {
		c := &le.cons[ref.con]
		if c.entailed {
			continue
		}
		ti := ref.term
		lo, hi := termBounds(c.terms[ti].coef, d)
		le.trail = append(le.trail, linSave{ref.con, ti, c.lo[ti], c.hi[ti], c.sumLo, c.sumHi})
		c.sumLo += lo - c.lo[ti]
		c.sumHi += hi - c.hi[ti]
		c.lo[ti] = lo
		c.hi[ti] = hi
	}
}

func (le *linEngine) markLen() int { return len(le.trail) }

func (le *linEngine) undoTo(mark int) {
	for len(le.trail) > mark {
		s := le.trail[len(le.trail)-1]
		le.trail = le.trail[:len(le.trail)-1]
		c := &le.cons[s.con]
		c.lo[s.term], c.hi[s.term] = s.lo, s.hi
		c.sumLo, c.sumHi = s.sumLo, s.sumHi
	}
}

// --------------------------------------------------------- event searcher

// emark captures all trail positions of the event engine.
type emark struct {
	store storeMark
	lin   int
}

// pairCon is a table propagator: a binary constraint compiled to an
// extensional allowed-pairs table over the root domains, enforcing domain
// consistency by support lookup (fixpoint mode only).
type pairCon struct {
	x, y    *Var
	ci      int32
	rootX   []int64
	rootY   []int64
	allowed [][]bool // allowed[i][j]: rootX[i] with rootY[j] satisfies ci
}

// esearcher runs depth-first branch-and-bound on top of the incremental
// store and the propagator queue.
type esearcher struct {
	*searchState
	st   *ivStore
	prep *prepared
	lin  *linEngine

	order []int

	// Fixpoint-mode propagator queue. Propagator IDs: [0,len(lin.cons)) are
	// linear constraints, the rest index pairs.
	queue     []int32
	qHead     int
	queued    []bool
	pairs     []pairCon
	pairByVar [][]int32

	// Trial-evaluation scratch for forward checking: cones[ci,vid] lists the
	// nodes of constraint ci that depend on vid (in topological order), and
	// tmpIv/tmpGen overlay hypothetical intervals over the store's memo
	// without touching it — a trial costs one cone walk, no trail, no undo.
	cones  map[int64][]int32
	tmpIv  []Interval
	tmpGen []uint64 // uint64: a capped-only-by-time search must never wrap
	tmpCur uint64

	keepBuf []int64 // forward checking's kept values, reused across calls

	lastConflict int32 // constraint index blamed for the last failure, -1 none
}

const maxPairTable = 4096 // largest root-domain product compiled to a table

func (m *Model) solveEvent(state *searchState, sol *Solution) {
	prep := m.prepareWith(state.opts.LinearMinTerms)
	s := &esearcher{
		searchState:  state,
		prep:         prep,
		st:           newIvStore(m, prep),
		order:        staticOrder(m),
		lastConflict: -1,
	}
	s.st.onRestoreDom = func(vid int, d Domain) {
		if d.Size() > 1 {
			s.assigned[vid] = false
		}
	}
	if !state.opts.DisableLinear && len(prep.lin) > 0 {
		s.lin = newLinEngine(prep, s.st.dom)
	}
	if state.opts.Fixpoint {
		s.st.watchCons = true
		s.buildPairs()
		nProps := len(s.pairs)
		if s.lin != nil {
			nProps += len(s.lin.cons)
		}
		s.queued = make([]bool, nProps)
		if !s.pruneUnary() {
			sol.Status = StatusInfeasible
			return
		}
	}

	// Root-level consistency check against the freshly computed memos.
	for _, root := range prep.conRoot {
		if s.st.memo[root].False() {
			sol.Status = StatusInfeasible
			return
		}
	}
	s.st.dispose(m.objective)
	if s.lin != nil {
		s.lin.dropEntailed(s.st)
	}

	complete := s.dfs(0)
	state.finish(sol, complete)
}

// setDom changes a domain through the store and keeps the linear residual
// caches in sync.
func (s *esearcher) setDom(vid int, d Domain) {
	s.st.setDom(vid, d)
	if s.lin != nil {
		s.lin.update(vid, d)
	}
}

func (s *esearcher) mark() emark {
	mk := emark{store: s.st.mark()}
	if s.lin != nil {
		mk.lin = s.lin.markLen()
	}
	return mk
}

func (s *esearcher) undoTo(mk emark) {
	s.st.undoTo(mk.store)
	if s.lin != nil {
		s.lin.undoTo(mk.lin)
	}
}

func (s *esearcher) dfs(depth int) bool {
	if s.checkBudget() {
		return false
	}
	if depth == len(s.order) {
		s.recordSolution()
		return true
	}
	vid := s.order[depth]
	if s.opts.DynamicOrder || s.opts.ActivityOrder {
		best := depth
		for i := depth + 1; i < len(s.order); i++ {
			if s.assigned[s.order[i]] {
				continue
			}
			if s.assigned[s.order[best]] || s.orderBetter(s.order[i], s.order[best]) {
				best = i
			}
		}
		if best != depth {
			s.order[depth], s.order[best] = s.order[best], s.order[depth]
			defer func() { s.order[depth], s.order[best] = s.order[best], s.order[depth] }()
		}
		vid = s.order[depth]
	}
	v := s.m.vars[vid]
	complete := true
	for _, val := range s.candidateValues(s.st.dom[vid], v, depth) {
		if s.checkBudget() {
			return false
		}
		s.stats.Nodes++
		mk := s.mark()
		s.bindVar(vid, val)
		ok := s.afterAssign(vid)
		if ok {
			if !s.dfs(depth + 1) {
				complete = false
			}
			if s.opts.FirstSolution && s.haveSol {
				s.stopped = true
				s.undoTo(mk)
				return false
			}
			if s.m.sense == Satisfy && s.haveSol {
				// One solution suffices for satisfy problems; the subtree
				// counts as explored so the result is reported optimal.
				s.undoTo(mk)
				return complete
			}
		} else {
			s.stats.Failures++
			s.noteConflict(vid)
		}
		s.undoTo(mk)
		if s.stopped {
			return false
		}
	}
	return complete
}

// orderBetter reports whether variable a should be branched before b under
// the dynamic heuristic in effect: conflict activity (scaled by domain size)
// when ActivityOrder is set, otherwise smallest current domain.
func (s *esearcher) orderBetter(a, b int) bool {
	if s.opts.ActivityOrder {
		sa := s.activity[a] / float64(s.st.dom[a].Size())
		sb := s.activity[b] / float64(s.st.dom[b].Size())
		if sa != sb {
			return sa > sb
		}
		return s.st.dom[a].Size() < s.st.dom[b].Size()
	}
	return s.st.dom[a].Size() < s.st.dom[b].Size()
}

// noteConflict bumps activity for the failed assignment: the branched
// variable plus the variables of the constraint blamed for the failure.
func (s *esearcher) noteConflict(vid int) {
	if s.activity == nil {
		return
	}
	s.bumpActivity(vid)
	if s.lastConflict >= 0 {
		for _, w := range s.prep.conVars[s.lastConflict] {
			s.bumpActivity(int(w))
		}
		s.lastConflict = -1
	}
	s.decayActivity()
}

func (s *esearcher) bindVar(vid int, val int64) {
	s.setDom(vid, s.st.dom[vid].singletonView(val))
	s.assigned[vid] = true
	s.assign[vid] = val
	s.notePhase(vid, val)
}

// afterAssign runs the propagation pipeline for the assignment of vid. In
// the default (trace-pinned) mode it performs the single-pass checks
// — linear residual propagation from vid, falsity of the constraints
// touching vid, the objective bound cut, then forward checking — each
// reading the incrementally maintained state instead of re-deriving it. In
// fixpoint mode the propagator queue drains first and any constraint
// anywhere turning false fails the node immediately.
func (s *esearcher) afterAssign(vid int) bool {
	if s.opts.Fixpoint {
		s.scheduleVar(vid)
		if !s.runQueue() {
			return false
		}
		s.st.flush()
		if s.st.failedCon >= 0 {
			s.lastConflict = s.st.failedCon
			return false
		}
	} else if s.lin != nil {
		if !s.lin.propagateFrom(s, vid) {
			return false
		}
		s.st.flush()
	} else {
		s.st.flush()
	}
	for _, ci := range s.prep.varCons[vid] {
		if s.st.memo[s.prep.conRoot[ci]].False() {
			s.lastConflict = ci
			return false
		}
	}
	if !s.eventBoundOK() {
		return false
	}
	if s.opts.Propagate {
		return s.forwardCheck(vid)
	}
	return true
}

func (s *esearcher) eventBoundOK() bool {
	if s.m.objective == nil || !s.haveSol {
		return true
	}
	return s.boundCut(s.st.memo[s.m.objective.ID])
}

// propagateFrom tightens the constraints watching vid in one sweep over
// them in posting order, each restarted from its (cached) residual sums
// after a successful narrowing.
func (le *linEngine) propagateFrom(s *esearcher, vid int) bool {
	for _, ref := range le.byVar[vid] {
		c := &le.cons[ref.con]
		if c.entailed {
			continue
		}
		if !le.propagateOne(s, c) {
			s.lastConflict = c.ci
			return false
		}
	}
	return true
}

func (le *linEngine) propagateOne(s *esearcher, c *linCon) bool {
restart:
	minSum, maxSum := c.sumLo, c.sumHi
	checkLe := c.op == OpLe || c.op == OpEq // sum <= K must hold
	checkGe := c.op == OpGe || c.op == OpEq // sum >= K must hold
	if checkLe && minSum > c.k+1e-9 {
		return false
	}
	if checkGe && maxSum < c.k-1e-9 {
		return false
	}
	// A term is tightened only when a checked side's slack is below its
	// current contribution span, which is at most its root span.
	if (!checkLe || c.k-minSum >= c.span) && (!checkGe || maxSum-c.k >= c.span) {
		return true
	}
	// Tighten each free variable from the residual.
	for ti := range c.terms {
		t := &c.terms[ti]
		d := s.st.dom[t.v.ID]
		if d.Size() <= 1 || t.coef == 0 {
			continue
		}
		lo, hi := c.lo[ti], c.hi[ti]
		restMin, restMax := minSum-lo, maxSum-hi
		var newLo, newHi float64 = math.Inf(-1), math.Inf(1)
		if checkLe {
			bound := c.k - restMin
			if t.coef > 0 {
				newHi = math.Min(newHi, bound/t.coef)
			} else {
				newLo = math.Max(newLo, bound/t.coef)
			}
		}
		if checkGe {
			bound := c.k - restMax
			if t.coef > 0 {
				newLo = math.Max(newLo, bound/t.coef)
			} else {
				newHi = math.Min(newHi, bound/t.coef)
			}
		}
		if math.IsInf(newLo, -1) && math.IsInf(newHi, 1) {
			continue
		}
		// Clamp infinite bounds to the variable's own range before integer
		// conversion (int64(Inf) is undefined).
		if math.IsInf(newLo, -1) {
			newLo = float64(d.Min())
		}
		if math.IsInf(newHi, 1) {
			newHi = float64(d.Max())
		}
		iLo, iHi := int64(math.Ceil(newLo-1e-9)), int64(math.Floor(newHi+1e-9))
		if float64(d.Min()) >= float64(iLo) && float64(d.Max()) <= float64(iHi) {
			continue // nothing to prune
		}
		kept := d.within(iLo, iHi)
		if kept.Empty() {
			return false
		}
		if kept.Size() < d.Size() {
			s.narrow(t.v.ID, kept)
			if kept.Size() == 1 {
				s.assigned[t.v.ID] = true
				s.assign[t.v.ID] = kept.Min()
			}
			// The caches now reflect the narrowing; rescan this constraint.
			goto restart
		}
	}
	return true
}

// narrow is a propagation-driven domain reduction: it flows through setDom
// (store trail, linear cache update) and, in fixpoint mode, wakes the
// propagators watching the variable.
func (s *esearcher) narrow(vid int, d Domain) {
	s.setDom(vid, d)
	if s.opts.Fixpoint {
		s.scheduleVar(vid)
	}
}

// forwardCheck performs last-free-variable pruning: for every
// constraint touching vid whose free variables reduce to one, each candidate
// value is tested against the constraint under a hypothetical singleton
// domain; values whose trial makes the constraint definitely false are
// dropped. Trials run on the scratch overlay (trialFalse), so a candidate
// costs one walk of the variable's cone inside that constraint — no domain
// change, no trail, no interval recomputation elsewhere in the DAG.
//
// A constraint whose interval is already true is skipped: every trial
// interval lies inside it, so no trial can fail. Kept values are collected
// in a reusable buffer; a contiguous run narrows to a view of the current
// domain, and only a run with gaps is copied out.
func (s *esearcher) forwardCheck(vid int) bool {
	for _, ci := range s.prep.varCons[vid] {
		if s.st.memo[s.prep.conRoot[ci]].True() {
			continue
		}
		free := -1
		nFree := 0
		for _, w := range s.prep.conVars[ci] {
			if !s.assigned[w] {
				nFree++
				free = int(w)
				if nFree > 1 {
					break
				}
			}
		}
		if nFree != 1 {
			continue
		}
		dom := s.st.dom[free]
		vals := dom.Values()
		keep := s.keepBuf[:0]
		first := 0
		for i, val := range vals {
			if !s.trialFalse(ci, free, val) {
				if len(keep) == 0 {
					first = i
				}
				keep = append(keep, val)
			}
		}
		s.keepBuf = keep
		if len(keep) == 0 {
			s.lastConflict = ci
			return false
		}
		if len(keep) < len(vals) {
			nd := Domain{vals: vals[first : first+len(keep)]}
			if nd.Max() != keep[len(keep)-1] {
				nd = domainFromSorted(append([]int64(nil), keep...))
			}
			s.narrow(free, nd)
			s.st.flush()
			if len(keep) == 1 {
				s.assigned[free] = true
				s.assign[free] = keep[0]
			}
		}
	}
	return true
}

// cone returns the nodes of constraint ci whose value depends on vid, in
// topological (ascending ID) order. Cones are cached: forward checking
// revisits the same (constraint, variable) pairs throughout the search.
func (s *esearcher) cone(ci int32, vid int) []int32 {
	key := int64(ci)<<32 | int64(int32(vid))
	if c, ok := s.cones[key]; ok {
		return c
	}
	dep := map[int]bool{}
	var visit func(e *Expr) bool
	visit = func(e *Expr) bool {
		if d, ok := dep[e.ID]; ok {
			return d
		}
		d := e.Op == OpVar && e.Var.ID == vid
		for _, a := range e.Args {
			if visit(a) {
				d = true
			}
		}
		dep[e.ID] = d
		return d
	}
	visit(s.prep.exprs[s.prep.conRoot[ci]])
	var list []int32
	for id, d := range dep {
		if d {
			list = append(list, int32(id))
		}
	}
	sort.Slice(list, func(i, j int) bool { return list[i] < list[j] })
	if s.cones == nil {
		s.cones = map[int64][]int32{}
	}
	s.cones[key] = list
	return list
}

// trialSrc resolves children during a trial evaluation: overlay first, the
// store's memo otherwise.
type trialSrc esearcher

func (t *trialSrc) iv(e *Expr) Interval {
	s := (*esearcher)(t)
	if s.tmpGen[e.ID] == s.tmpCur {
		return s.tmpIv[e.ID]
	}
	return s.st.memo[e.ID]
}

func (t *trialSrc) domainOf(v *Var) Domain { return (*esearcher)(t).st.dom[v.ID] }

// trialFalse reports whether constraint ci becomes definitely false when
// vid is hypothetically fixed to val, by recomputing just the variable's
// cone within the constraint over the scratch overlay.
func (s *esearcher) trialFalse(ci int32, vid int, val int64) bool {
	if s.tmpIv == nil {
		s.tmpIv = make([]Interval, s.prep.nExpr)
		s.tmpGen = make([]uint64, s.prep.nExpr)
	}
	cone := s.cone(ci, vid)
	s.tmpCur++
	src := (*trialSrc)(s)
	for _, id := range cone {
		e := s.prep.exprs[id]
		var iv Interval
		if e.Op == OpVar {
			// The only variable node in the cone is vid's own.
			iv = Point(float64(val))
		} else {
			iv = computeIv(e, src)
		}
		s.tmpIv[id] = iv
		s.tmpGen[id] = s.tmpCur
	}
	return s.tmpIv[s.prep.conRoot[ci]].False()
}

func (s *esearcher) recordSolution() {
	vals := make([]int64, len(s.m.vars))
	for i := range vals {
		vals[i] = s.st.dom[i].Min()
	}
	s.record(vals)
}

// ------------------------------------------------------- propagator queue

// scheduleVar enqueues every propagator watching vid.
func (s *esearcher) scheduleVar(vid int) {
	if s.lin != nil {
		for _, ref := range s.lin.byVar[vid] {
			if !s.lin.cons[ref.con].entailed {
				s.schedule(ref.con)
			}
		}
	}
	base := int32(0)
	if s.lin != nil {
		base = int32(len(s.lin.cons))
	}
	for _, pi := range s.pairByVar[vid] {
		s.schedule(base + pi)
	}
}

func (s *esearcher) schedule(pi int32) {
	if s.queued[pi] {
		return
	}
	s.queued[pi] = true
	s.queue = append(s.queue, pi)
}

// runQueue drains the propagator queue to fixpoint. Propagators narrowing a
// domain wake the propagators watching that variable, so the queue only
// empties when no propagator can prune further.
func (s *esearcher) runQueue() bool {
	for s.qHead < len(s.queue) {
		pi := s.queue[s.qHead]
		s.qHead++
		s.queued[pi] = false
		nLin := int32(0)
		if s.lin != nil {
			nLin = int32(len(s.lin.cons))
		}
		ok := true
		if pi < nLin {
			c := &s.lin.cons[pi]
			ok = c.entailed || s.lin.propagateOne(s, c)
			if !ok {
				s.lastConflict = c.ci
			}
		} else {
			ok = s.pairs[pi-nLin].propagate(s)
		}
		if !ok {
			s.clearQueue()
			return false
		}
	}
	s.queue = s.queue[:0]
	s.qHead = 0
	return true
}

func (s *esearcher) clearQueue() {
	for _, pi := range s.queue[s.qHead:] {
		s.queued[pi] = false
	}
	s.queue = s.queue[:0]
	s.qHead = 0
}

// ----------------------------------------------------------- table props

// buildPairs compiles every binary constraint whose root-domain product is
// small into an extensional table over the two variables' root domains.
func (s *esearcher) buildPairs() {
	m := s.m
	s.pairByVar = make([][]int32, len(m.vars))
	scratch := make([]int64, len(m.vars))
	for ci, vids := range s.prep.conVars {
		if len(vids) != 2 {
			continue
		}
		x, y := m.vars[vids[0]], m.vars[vids[1]]
		if x.Dom.Size()*y.Dom.Size() > maxPairTable {
			continue
		}
		c := m.constraints[ci]
		pc := pairCon{
			x: x, y: y, ci: int32(ci),
			rootX: x.Dom.Values(), rootY: y.Dom.Values(),
		}
		pc.allowed = make([][]bool, len(pc.rootX))
		for i, xv := range pc.rootX {
			pc.allowed[i] = make([]bool, len(pc.rootY))
			scratch[x.ID] = xv
			for j, yv := range pc.rootY {
				scratch[y.ID] = yv
				pc.allowed[i][j] = c.EvalBool(scratch)
			}
		}
		pi := int32(len(s.pairs))
		s.pairs = append(s.pairs, pc)
		s.pairByVar[x.ID] = append(s.pairByVar[x.ID], pi)
		s.pairByVar[y.ID] = append(s.pairByVar[y.ID], pi)
	}
}

// propagate enforces domain consistency on the pair: every value of each
// variable must have at least one supporting value in the other's domain.
func (pc *pairCon) propagate(s *esearcher) bool {
	if !pc.pruneSide(s, pc.x, pc.y, pc.rootX, pc.rootY, func(i, j int) bool { return pc.allowed[i][j] }) {
		return false
	}
	return pc.pruneSide(s, pc.y, pc.x, pc.rootY, pc.rootX, func(i, j int) bool { return pc.allowed[j][i] })
}

func (pc *pairCon) pruneSide(s *esearcher, a, b *Var, rootA, rootB []int64, allowed func(i, j int) bool) bool {
	da, db := s.st.dom[a.ID], s.st.dom[b.ID]
	keep := make([]int64, 0, da.Size())
	for _, av := range da.Values() {
		i := rootIndex(rootA, av)
		supported := false
		for _, bv := range db.Values() {
			if allowed(i, rootIndex(rootB, bv)) {
				supported = true
				break
			}
		}
		if supported {
			keep = append(keep, av)
		}
	}
	if len(keep) == 0 {
		s.lastConflict = pc.ci
		return false
	}
	if len(keep) < da.Size() {
		s.narrow(a.ID, domainFromSorted(keep))
		if len(keep) == 1 {
			s.assigned[a.ID] = true
			s.assign[a.ID] = keep[0]
		}
	}
	return true
}

func rootIndex(root []int64, v int64) int {
	return sort.Search(len(root), func(i int) bool { return root[i] >= v })
}

// pruneUnary filters every single-variable constraint against its variable's
// root domain once, before search (fixpoint mode only).
func (s *esearcher) pruneUnary() bool {
	scratch := make([]int64, len(s.m.vars))
	for ci, vids := range s.prep.conVars {
		if len(vids) != 1 {
			continue
		}
		v := s.m.vars[vids[0]]
		c := s.m.constraints[ci]
		d := s.st.dom[v.ID]
		keep := make([]int64, 0, d.Size())
		for _, val := range d.Values() {
			scratch[v.ID] = val
			if c.EvalBool(scratch) {
				keep = append(keep, val)
			}
		}
		if len(keep) == 0 {
			return false
		}
		if len(keep) < d.Size() {
			s.narrow(v.ID, domainFromSorted(keep))
			if len(keep) == 1 {
				s.assigned[v.ID] = true
				s.assign[v.ID] = keep[0]
			}
		}
	}
	s.st.flush()
	return true
}
