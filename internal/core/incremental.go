package core

// Incremental re-grounding with solver-model patching.
//
// Cologne's tick loops re-solve their COP as tuples churn, but grounding
// from scratch every tick throws away the fact that most of the constraint
// model is unchanged: the decision variables are stable, most rule
// instantiations join exactly the same rows, and much of what does change is
// a value update — a CPU reading, a demand allocation — that lands in the
// model as a single constant node.
//
// When Config.SolverIncremental is set, the node keeps the grounded model
// between solves together with a per-rule grounding cache, and tracks the
// net row changes per predicate (noteGroundDelta, fed by the same visible
// transitions that drive the regular-rule delta pipeline). The next solve
// classifies every solver rule:
//
//   - reuse: no predicate the rule reads changed — its cached symbolic
//     tuples and constraints are kept verbatim;
//   - patch: every change in the rule's inputs is a keyed value update of
//     cells the rule grounded into constant nodes (tracked by cell
//     provenance during grounding, with structural uses tainted) — the
//     constants are rewritten in place via solver.Model.PatchConst and the
//     cached linear-propagator shapes are refreshed, touching nothing else;
//   - re-ground: anything structural — rows appearing or vanishing, key
//     changes, tainted cells, or upstream symbolic tuples replaced — re-runs
//     just that rule's grounding plan against the current database.
//
// The constraint list is then reassembled in canonical rule order, so the
// patched model is element-for-element what a fresh grounding would have
// produced (tables enumerate rows in arrival order precisely so value
// updates do not reorder emission). Solutions and objectives are therefore
// identical to fresh grounding, tick for tick; only the work per re-solve
// shrinks. Structural changes to the variable set (var-decl forall or
// domain tables) and periodic compaction of dead expression nodes fall back
// to a full ground.

import (
	"time"

	"repro/internal/analysis"
	"repro/internal/colog"
	"repro/internal/solver"
)

// ---------------------------------------------------------- provenance

// cellProv identifies one ground table cell: the predicate, the full-row
// key when the row was read, and the column.
type cellProv struct {
	pred string
	key  string
	col  int
}

// constRef records one constant node grounded directly from a table cell.
type constRef struct {
	e   *solver.Expr
	col int
}

// runRecorder captures, for one rule grounding, which constants came from
// which cells (refs) and which columns the rule used structurally (taints):
// join keys, compared values, folded arithmetic, filter decisions, grouping
// keys, and cells emitted into head tuples. A cell change is patchable for
// the rule only if its column is untainted.
type runRecorder struct {
	refs   map[string]map[string][]constRef // pred -> row key -> constants
	taints map[string]map[int]bool          // pred -> structural columns
}

func newRunRecorder() *runRecorder {
	return &runRecorder{
		refs:   map[string]map[string][]constRef{},
		taints: map[string]map[int]bool{},
	}
}

// taint marks the cell's column structural for this rule.
func (r *runRecorder) taint(p *cellProv) {
	if r == nil {
		return
	}
	r.taintCol(p.pred, p.col)
}

func (r *runRecorder) taintCol(pred string, col int) {
	cols := r.taints[pred]
	if cols == nil {
		cols = map[int]bool{}
		r.taints[pred] = cols
	}
	cols[col] = true
}

func (r *runRecorder) tainted(pred string, col int) bool {
	return r.taints[pred][col]
}

// ref registers a constant node grounded from the cell.
func (r *runRecorder) ref(e *solver.Expr, p *cellProv) {
	if r == nil {
		return
	}
	rows := r.refs[p.pred]
	if rows == nil {
		rows = map[string][]constRef{}
		r.refs[p.pred] = rows
	}
	rows[p.key] = append(rows[p.key], constRef{e: e, col: p.col})
}

// addPlanTaints marks the statically known structural columns of a
// grounding plan: every join argument that is compared (constants and
// repeated or previously bound variables) rather than freshly bound. Index
// probes skip rows without evaluating their cells, so these columns must be
// tainted up front — a runtime recording would miss the rows a probe never
// visited.
func (r *runRecorder) addPlanTaints(p *groundPlan) {
	for si := range p.steps {
		step := &p.steps[si]
		if step.kind != stepJoin {
			continue
		}
		for col := range step.argOps {
			switch step.argOps[col].kind {
			case argCheck, argConst, argExpr:
				r.taintCol(step.atom.Pred, col)
			}
		}
	}
}

// ---------------------------------------------------------- cache state

// cachedRun is the cached grounding of one solver rule.
type cachedRun struct {
	out  []symTuple
	reqs []*solver.Expr
	rec  *runRecorder
}

// netDelta is the net visible change of one row since the last solve.
type netDelta struct {
	vals []colog.Value
	n    int // +1 net insert, -1 net delete (0 entries are removed)
}

// groundState is the grounding cache kept on the node between solves.
type groundState struct {
	model  *solver.Model
	insts  []varInstance
	varSym map[string][]symTuple // symbolic tuples from var declarations
	runs   map[int]*cachedRun
	genv   map[string]colog.Value
	// nodesAtFull is the expression count right after the last full ground;
	// when re-grounds accumulate enough dead nodes past it, the next solve
	// compacts with a full ground.
	nodesAtFull int
}

// noteCacheRun stores a rule's grounding in the cache under construction.
func (g *grounder) noteCacheRun(ri int, run *groundRun) {
	if !g.recording {
		return
	}
	if g.cacheRuns == nil {
		g.cacheRuns = map[int]*cachedRun{}
	}
	g.cacheRuns[ri] = &cachedRun{out: run.out, reqs: run.reqs, rec: run.rec}
}

// inferShipKeys derives primary keys for the localization ship temps
// (analysis rewrites a multi-site rule body into tmp_* tables; see
// analysis/localize.go). The temp inherits a key by propagation: a head
// position is a value column when its variable is only ever bound from
// non-key columns of the body tables; the remaining positions form the key,
// valid when every body atom contributing a value variable has all of its
// own key columns represented among the head's key variables. Keying the
// temps makes remote value churn (a neighbour's curVm reading) a keyed
// replace, which the incremental grounder can absorb by patching constants
// — and which spares downstream rules a transient double-row state either
// way.
func inferShipKeys(res *analysis.Result, declared map[string][]int, rules []*colog.Rule) map[string][]int {
	keys := make(map[string][]int, len(declared))
	for k, v := range declared {
		keys[k] = v
	}
	keyColsOf := func(a *colog.Atom) map[int]bool {
		kc, ok := keys[a.Pred]
		if !ok {
			// Whole-row set semantics: every column is part of the key.
			all := map[int]bool{}
			for i := range a.Args {
				all[i] = true
			}
			return all
		}
		cols := map[int]bool{}
		for _, c := range kc {
			cols[c] = true
		}
		return cols
	}
	for _, r := range rules {
		pred := r.Head.Pred
		if _, has := keys[pred]; has {
			continue
		}
		if _, rewritten := res.Rewritten[r.Label]; !rewritten || len(pred) < 4 || pred[:4] != "tmp_" {
			continue
		}
		// Classify head variables: value iff every body occurrence is at a
		// non-key column.
		valueVar := map[string]bool{}
		occursAtKey := map[string]bool{}
		occursAtValue := map[string]bool{}
		for _, l := range r.Body {
			al, ok := l.(*colog.AtomLit)
			if !ok {
				continue
			}
			kc := keyColsOf(al.Atom)
			for i, arg := range al.Atom.Args {
				v, isVar := arg.(*colog.VarTerm)
				if !isVar {
					continue
				}
				if kc[i] {
					occursAtKey[v.Name] = true
				} else {
					occursAtValue[v.Name] = true
				}
			}
		}
		for v := range occursAtValue {
			if !occursAtKey[v] {
				valueVar[v] = true
			}
		}
		if len(valueVar) == 0 {
			continue // nothing to gain: whole row already behaves as the key
		}
		var keyPos []int
		keyVars := map[string]bool{}
		ok := true
		for i, arg := range r.Head.Args {
			v, isVar := arg.(*colog.VarTerm)
			if !isVar {
				ok = false
				break
			}
			if !valueVar[v.Name] {
				keyPos = append(keyPos, i)
				keyVars[v.Name] = true
			}
		}
		if !ok || len(keyPos) == len(r.Head.Args) {
			continue
		}
		// Validity: each body atom binding a value variable must have all
		// of its key columns' variables among the head key variables, so
		// the key functionally determines the values.
		for _, l := range r.Body {
			al, isAtom := l.(*colog.AtomLit)
			if !isAtom {
				continue
			}
			kc := keyColsOf(al.Atom)
			contributes := false
			for i, arg := range al.Atom.Args {
				if v, isVar := arg.(*colog.VarTerm); isVar && !kc[i] && valueVar[v.Name] {
					contributes = true
					break
				}
			}
			if !contributes {
				continue
			}
			for i := range al.Atom.Args {
				if !kc[i] {
					continue
				}
				v, isVar := al.Atom.Args[i].(*colog.VarTerm)
				if !isVar || !keyVars[v.Name] {
					ok = false
					break
				}
			}
			if !ok {
				break
			}
		}
		if ok {
			keys[pred] = keyPos
		}
	}
	return keys
}

// ruleReads lists the distinct body predicates of a rule.
func ruleReads(r *colog.Rule) []string {
	var out []string
	seen := map[string]bool{}
	for _, l := range r.Body {
		if al, ok := l.(*colog.AtomLit); ok && !seen[al.Atom.Pred] {
			seen[al.Atom.Pred] = true
			out = append(out, al.Atom.Pred)
		}
	}
	return out
}

// noteGroundDelta folds one visible row transition into the per-predicate
// net change log consumed by the next incremental solve. Compensating
// transitions (a row deleted and re-inserted, an aggregate passing through
// intermediate values) cancel out, so a tick that ends where it started
// leaves the predicate clean.
func (n *Node) noteGroundDelta(tr delta) {
	t := n.tables[tr.tuple.Pred]
	if t == nil || t.event {
		return
	}
	if n.groundDeltas == nil {
		n.groundDeltas = map[string]map[string]*netDelta{}
	}
	rows := n.groundDeltas[tr.tuple.Pred]
	if rows == nil {
		rows = map[string]*netDelta{}
		n.groundDeltas[tr.tuple.Pred] = rows
	}
	// The scratch buffer keeps the cancel path (retract + re-insert of the
	// same row, the common shape of a tick) allocation-free up to the map
	// entry itself. Transition row slices are immutable once emitted, so the
	// log aliases them instead of copying.
	n.deltaKeyBuf = appendValsKey(n.deltaKeyBuf[:0], tr.tuple.Vals)
	nd := rows[string(n.deltaKeyBuf)]
	if nd == nil {
		rows[string(n.deltaKeyBuf)] = &netDelta{vals: tr.tuple.Vals, n: tr.sign}
		return
	}
	nd.n += tr.sign
	if nd.n == 0 {
		delete(rows, string(n.deltaKeyBuf))
	}
}

// ---------------------------------------------------------- solve driver

// solveIncrementalLocked is solveLocked's incremental-grounding twin: it
// reuses, patches, or re-grounds against the cached model, then runs the
// shared solve/materialize phase.
func (n *Node) solveIncrementalLocked(opts SolveOptions) (*SolveResult, error) {
	groundStart := time.Now()
	g := &grounder{n: n, recording: true}
	res := &SolveResult{}

	info, err := n.groundForSolve(g)
	if err != nil {
		n.ground = nil
		n.groundDeltas = nil
		return nil, err
	}
	res.Ground = info
	if g.model.NumVars() == 0 {
		// Nothing to optimize; nothing worth caching either.
		n.ground = nil
		n.groundDeltas = nil
		res.Status = solver.StatusOptimal
		n.LastSolveResult = res
		return res, nil
	}
	res.GroundWall = time.Since(groundStart)
	out, err := n.finishSolve(g, opts, res)
	if err != nil {
		n.ground = nil
		n.groundDeltas = nil
	}
	return out, err
}

// groundForSolve grounds incrementally against the cache when possible,
// fully otherwise, leaving the grounder ready for finishSolve.
func (n *Node) groundForSolve(g *grounder) (*GroundInfo, error) {
	if st := n.ground; st != nil {
		if info, ok, err := n.groundIncremental(g, st); err != nil {
			return nil, err
		} else if ok {
			return info, nil
		}
	}
	return n.groundFull(g)
}

// groundFull grounds from scratch — first solve, structural variable
// change, or compaction — and rebuilds the cache.
func (n *Node) groundFull(g *grounder) (*GroundInfo, error) {
	info := &GroundInfo{Mode: "full"}
	g.model = solver.NewModel()
	g.sym = map[string][]symTuple{}
	g.cacheRuns = map[int]*cachedRun{}
	if err := g.createVars(); err != nil {
		return nil, err
	}
	if g.model.NumVars() == 0 {
		return info, nil
	}
	// Snapshot the var-declaration symbolic tuples before derivation rules
	// append to the same map (full slice expressions force appends to copy).
	varSym := make(map[string][]symTuple, len(g.sym))
	for pred, sts := range g.sym {
		varSym[pred] = sts[:len(sts):len(sts)]
	}
	if err := g.deriveSolverRules(); err != nil {
		return nil, err
	}
	if err := g.applyConstraintRules(); err != nil {
		return nil, err
	}
	if err := g.setGoal(); err != nil {
		return nil, err
	}

	n.ground = &groundState{
		model:       g.model,
		insts:       g.insts,
		varSym:      varSym,
		runs:        g.cacheRuns,
		genv:        g.genv,
		nodesAtFull: g.model.NumExprNodes(),
	}
	n.groundDeltas = nil
	return info, nil
}

// groundIncremental re-grounds against the cache. ok is false when the
// change set demands a full ground (variable-set change or compaction).
func (n *Node) groundIncremental(g *grounder, st *groundState) (*GroundInfo, bool, error) {
	// Compaction: re-grounds leave dead expression nodes behind in the
	// model; once they outnumber the live model, rebuild from scratch.
	if st.model.NumExprNodes() > 2*st.nodesAtFull+4096 {
		return nil, false, nil
	}
	// Effective per-predicate changes (materialized rows shadowed by the
	// variable tuples are invisible to grounding and therefore ignorable).
	dirty := map[string][]*netDelta{}
	for pred, rows := range n.groundDeltas {
		if eff := n.effectiveDeltas(st, pred, rows); len(eff) > 0 {
			dirty[pred] = eff
		}
	}
	// A change under a var declaration changes the variable set: full.
	for pred := range dirty {
		if n.prog.varPreds[pred] {
			return nil, false, nil
		}
	}

	info := &GroundInfo{Mode: "incremental"}
	g.model = st.model
	g.insts = st.insts
	g.genv = st.genv
	g.sym = make(map[string][]symTuple, len(st.varSym))
	for pred, sts := range st.varSym {
		g.sym[pred] = sts[:len(sts):len(sts)]
	}

	rules := n.prog.res.Program.Rules
	symChanged := map[string]bool{}
	goalDirty := false

	process := func(ri int, constraint bool) error {
		rule := rules[ri]
		run := st.runs[ri]
		upstream := constraint && symChanged[rule.Head.Pred]
		var dirtyReads []string
		for _, p := range n.prog.reads[ri] {
			if symChanged[p] {
				upstream = true
			}
			if dirty[p] != nil {
				dirtyReads = append(dirtyReads, p)
			}
		}
		switch {
		case !upstream && len(dirtyReads) == 0:
			info.RulesReused++
		case !upstream && n.patchRun(st, run, dirtyReads, dirty, info):
			info.RulesPatched++
		default:
			fresh := g.newGroundRun(n.prog.ground[ri])
			if err := g.runRule(fresh); err != nil {
				return err
			}
			st.runs[ri] = &cachedRun{out: fresh.out, reqs: fresh.reqs, rec: fresh.rec}
			run = st.runs[ri]
			if !constraint {
				symChanged[rule.Head.Pred] = true
			}
			info.RulesReground++
		}
		if !constraint && len(run.out) > 0 {
			head := rule.Head.Pred
			g.sym[head] = append(g.sym[head], run.out...)
			g.invalidatePred(head)
		}
		return nil
	}

	for _, level := range n.prog.levels {
		for _, ri := range level {
			if err := process(ri, false); err != nil {
				return nil, false, err
			}
		}
	}
	for _, ri := range n.prog.consIdx {
		if err := process(ri, true); err != nil {
			return nil, false, err
		}
	}

	// Objective: recompute when the goal predicate's rows or symbolic
	// tuples changed (cheap — it reuses the cached aggregate expressions).
	if goal := n.prog.res.Program.Goal; goal != nil && goal.Sense != colog.GoalSatisfy {
		goalDirty = dirty[goal.Atom.Pred] != nil || symChanged[goal.Atom.Pred]
		if goalDirty {
			g.genv = nil
			if err := g.installGoal(); err != nil {
				return nil, false, err
			}
			st.genv = g.genv
		}
	}

	// Reassemble the constraint list in canonical rule order — exactly the
	// order a fresh grounding posts in. For a pure reuse/patch tick the
	// list is element-wise identical and the cached search metadata
	// survives.
	var cs []*solver.Expr
	for _, level := range n.prog.levels {
		for _, ri := range level {
			cs = append(cs, st.runs[ri].reqs...)
		}
	}
	for _, ri := range n.prog.consIdx {
		cs = append(cs, st.runs[ri].reqs...)
	}
	st.model.SetConstraints(cs)

	n.groundDeltas = nil
	return info, true, nil
}

// effectiveDeltas filters a predicate's net changes down to those visible
// to the grounder: for a var-declaration predicate, materialized rows whose
// regular-attribute key is shadowed by a symbolic tuple never reach a rule
// body (cachedGroundRows keeps only unshadowed rows), so changes to them
// are noise.
func (n *Node) effectiveDeltas(st *groundState, pred string, rows map[string]*netDelta) []*netDelta {
	out := make([]*netDelta, 0, len(rows))
	sym := st.varSym[pred]
	if len(sym) == 0 || n.prog.headPreds[pred] {
		// Not a pure var-declaration predicate: everything counts.
		for _, nd := range rows {
			out = append(out, nd)
		}
		return out
	}
	ti := n.prog.res.Tables[pred]
	shadow := symShadowKeys(ti, sym)
	for _, nd := range rows {
		k, _ := symRegKey(ti, func(i int) (colog.Value, bool) { return nd.vals[i], true })
		if !shadow[k] {
			out = append(out, nd)
		}
	}
	return out
}

// symShadowKeys returns the regular-attribute keys of the symbolic tuples
// that are ground at every regular attribute. A materialized row of the
// same predicate with one of these keys is shadowed by the variable tuple:
// grounding never reads it.
func symShadowKeys(ti *analysis.TableInfo, sts []symTuple) map[string]bool {
	shadow := map[string]bool{}
	for _, st := range sts {
		if k, ok := symRegKey(ti, func(i int) (colog.Value, bool) {
			if st[i].isSym() {
				return colog.Value{}, false
			}
			return st[i].val, true
		}); ok {
			shadow[k] = true
		}
	}
	return shadow
}

// symRegKey builds the regular-attribute (non-solver-column) key used for
// shadow tests.
func symRegKey(ti *analysis.TableInfo, get func(i int) (colog.Value, bool)) (string, bool) {
	k := ""
	for i := 0; i < ti.Arity; i++ {
		if ti.SolverAttrs[i] {
			continue
		}
		v, ok := get(i)
		if !ok {
			return "", false
		}
		k += v.Key() + "|"
	}
	return k, true
}

// ---------------------------------------------------------- patching

// colPatch is one constant rewrite: the cell's column and its new value.
type colPatch struct {
	col int
	val float64
}

// rowPatch is one keyed value update applied to a rule's cached grounding.
type rowPatch struct {
	pred           string
	oldKey, newKey string
	cols           []colPatch
}

// patchRun decides whether every change in the rule's dirty input
// predicates is a keyed value update the cached grounding can absorb, and
// if so applies it: the constants grounded from the changed cells are
// rewritten in place and the provenance index is re-keyed. Returns false —
// leaving the cache untouched — when anything structural is involved.
func (n *Node) patchRun(st *groundState, run *cachedRun, dirtyReads []string, dirty map[string][]*netDelta, info *GroundInfo) bool {
	var patches []rowPatch
	for _, pred := range dirtyReads {
		t := n.tables[pred]
		if t == nil || t.keyCols == nil {
			// Without a primary key a value change is a fresh row, which
			// lands at a new position in the stable row order: structural.
			return false
		}
		type pair struct {
			del, ins *netDelta
			bad      bool
		}
		groups := map[string]*pair{}
		for _, nd := range dirty[pred] {
			k := string(keyOf(nd.vals, t.keyCols))
			p := groups[k]
			if p == nil {
				p = &pair{}
				groups[k] = p
			}
			switch {
			case nd.n == 1 && p.ins == nil:
				p.ins = nd
			case nd.n == -1 && p.del == nil:
				p.del = nd
			default:
				p.bad = true
			}
		}
		for _, p := range groups {
			if p.bad || p.del == nil || p.ins == nil {
				return false // row appeared, vanished, or churned: structural
			}
			oldKey := valsKey(p.del.vals)
			var cols []colPatch
			refs := run.rec.refs[pred][oldKey]
			for c := range p.del.vals {
				if p.del.vals[c].Equal(p.ins.vals[c]) {
					continue
				}
				if run.rec.tainted(pred, c) {
					return false // structural use of the changed column
				}
				hasRef := false
				for _, ref := range refs {
					if ref.col == c {
						hasRef = true
						break
					}
				}
				if !hasRef {
					continue // the rule never grounded this cell: no-op
				}
				if !p.ins.vals[c].IsNumeric() {
					return false
				}
				cols = append(cols, colPatch{col: c, val: p.ins.vals[c].Num()})
			}
			patches = append(patches, rowPatch{
				pred: pred, oldKey: oldKey, newKey: valsKey(p.ins.vals), cols: cols,
			})
		}
	}
	// All changes absorbed: apply.
	for _, rp := range patches {
		rows := run.rec.refs[rp.pred]
		refs := rows[rp.oldKey]
		for _, cp := range rp.cols {
			for _, ref := range refs {
				if ref.col == cp.col {
					st.model.PatchConst(ref.e, cp.val)
					info.ConstsPatched++
				}
			}
		}
		if rp.oldKey != rp.newKey && refs != nil {
			delete(rows, rp.oldKey)
			rows[rp.newKey] = refs
		}
	}
	return true
}

// ---------------------------------------------------------- warm start

// warmStartHints derives solver hints from the previous solve's
// materialized assignments (cfg.SolverWarmStart): each variable whose tuple
// was assigned last tick is branched on that value first.
func (n *Node) warmStartHints(g *grounder) map[int]int64 {
	var hints map[int]int64
	byPred := map[string]map[string]int64{}
	for _, inst := range g.insts {
		if inst.v == nil {
			continue
		}
		ti := n.prog.res.Tables[inst.pred]
		if ti == nil {
			continue
		}
		// Hint only single-attribute tuples: with several unbound positions
		// the instance records just one variable, and pairing it with the
		// first solver-attribute cell would hint the wrong variable.
		nSym := 0
		for _, isSym := range ti.SolverAttrs {
			if isSym {
				nSym++
			}
		}
		if nSym != 1 {
			continue
		}
		idx, ok := byPred[inst.pred]
		if !ok {
			idx = map[string]int64{}
			for _, tp := range n.lastMaterialized[inst.pred] {
				k, kok := symRegKey(ti, func(i int) (colog.Value, bool) { return tp.Vals[i], true })
				if !kok {
					continue
				}
				for i, v := range tp.Vals {
					if ti.SolverAttrs[i] && v.Kind == colog.KindInt {
						idx[k] = v.I
						break
					}
				}
			}
			byPred[inst.pred] = idx
		}
		k, kok := symRegKey(ti, func(i int) (colog.Value, bool) {
			if inst.vals[i].isSym() {
				return colog.Value{}, false
			}
			return inst.vals[i].val, true
		})
		if !kok {
			continue
		}
		if v, have := idx[k]; have {
			if hints == nil {
				hints = map[int]int64{}
			}
			hints[inst.v.ID] = v
		}
	}
	return hints
}
