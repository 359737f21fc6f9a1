package core

import (
	"fmt"
	"sort"
	"time"

	"repro/internal/colog"
	"repro/internal/solver"
)

// gval is a grounding-time value: either a ground constant or a symbolic
// solver expression (the runtime representation of a solver attribute).
// When the incremental grounder is recording, ground values bound from
// table cells carry their provenance so constants grounded from them can be
// patched in place when the cell's value changes (see incremental.go).
type gval struct {
	val  colog.Value
	sym  *solver.Expr
	prov *cellProv
}

func (g gval) isSym() bool { return g.sym != nil }

func (g gval) String() string {
	if g.isSym() {
		return g.sym.String()
	}
	return g.val.String()
}

// key panics on symbolic values; callers must only key ground attributes.
func (g gval) key() string {
	if g.isSym() {
		panic("core: keying a symbolic value")
	}
	return g.val.Key()
}

// symTuple is a row of a solver table during grounding: ground values at
// regular attribute positions, expressions at solver attribute positions.
type symTuple []gval

// varInstance records one decision variable created from a var declaration,
// for hinting and materialization.
type varInstance struct {
	pred string
	vals []gval // the declared tuple; exactly the solver positions are symbolic
	v    *solver.Var
}

// grounder builds one COP from the node's current database state: it
// evaluates solver derivation rules bottom-up over symbolic tuples,
// translating selections and aggregations over solver attributes into
// constraints (paper sections 5.3-5.4).
//
// Grounding runs as an indexed, ordered pipeline: each rule body is planned
// once per Program, in Compile (literals ordered most-bound-first, body
// order on ties, joins resolved to index probes; see planBody). A ground
// binds each plan's joins to this solve's rows (newGroundRun), evaluates it
// over a slice-backed binding frame with an undo trail, and merges the
// results of a dependency level's rules in rule order. Joins consume
// tables directly through the persistent arrival-ordered indexes and
// memoized scans, with compares pushed down into the row source (see
// stream.go).
type grounder struct {
	n     *Node
	model *solver.Model
	sym   map[string][]symTuple
	insts []varInstance
	genv  map[string]colog.Value // goal bindings after grounding

	// Per-solve cache: the unshadowed ground-row tails of solver
	// predicates. Variable slot layouts are the Program's, shared by every
	// solve.
	groundRowsCache map[string][][]colog.Value

	// recording enables provenance capture for the incremental grounding
	// cache: bound table cells carry provenance and each rule run records
	// which constants it grounded from which cells (see incremental.go).
	recording bool
	cacheRuns map[int]*cachedRun
}

// invalidatePred drops the cache for one predicate after its symbolic
// tuple set changed.
func (g *grounder) invalidatePred(pred string) {
	delete(g.groundRowsCache, pred)
}

// unknownPredErr is the error for a body or goal predicate with no table,
// surfaced by Compile.
func unknownPredErr(pred string) error {
	return fmt.Errorf("unknown predicate %s", pred)
}

// SolveOptions tune one COP execution.
type SolveOptions struct {
	// MaxTime overrides Config.SolverMaxTime when positive.
	MaxTime time.Duration
	// Hint supplies a warm-start value per declared variable tuple: pred is
	// the var table, vals the declared arguments with solver positions
	// holding zero values. Returning ok=false leaves the variable unhinted.
	Hint func(pred string, vals []colog.Value) (int64, bool)
	// FirstSolution stops at the first incumbent (with Hint: reproduces the
	// warm start exactly when feasible).
	FirstSolution bool
	// ValueOrder optionally reorders candidate values per variable.
	ValueOrder func(v *solver.Var, vals []int64) []int64
	// Interrupt, when non-nil, is polled by the search at its budget-check
	// cadence; the first true return stops the search with the best
	// incumbent so far and marks the result Degraded. The serving runtime's
	// per-tick deadline arrives through this hook. While the hook returns
	// false the solver trace is identical to a run without it.
	Interrupt func() bool
	// DeferDegraded skips materialization when the solve was cut short by
	// Interrupt: the result still carries the incumbent assignments, but
	// tables, outbox, and the write-ahead log are left untouched, so the
	// engine's delta/arrival-order state stays exactly what a batch node
	// that never ran the degraded solve would hold. The serving runtime
	// publishes such incumbents as an overlay and lets a later completed
	// tick materialize; see docs/serving.md.
	DeferDegraded bool
}

// Assignment is one concrete solver-variable tuple in a solve result.
type Assignment struct {
	Pred string
	Vals []colog.Value
}

// SolveResult reports the outcome of one COP execution.
type SolveResult struct {
	Status      solver.Status
	Objective   float64
	HasGoal     bool
	Assignments []Assignment
	NumVars     int
	NumCons     int
	// Shapes counts the grounded constraints per propagator shape (linear,
	// unary, binary, generic, const), as classified at grounding time.
	Shapes map[string]int
	Stats  solver.Stats
	// GroundWall is the wall time spent building (or incrementally
	// patching) the solver model before the search started; the search
	// itself is Stats.Elapsed. Cluster epoch statistics fold both into
	// their per-epoch timing breakdown.
	GroundWall time.Duration
	// Ground reports how the model was built when incremental re-grounding
	// is enabled (nil otherwise).
	Ground *GroundInfo
	// Degraded reports that SolveOptions.Interrupt cut the search short:
	// the assignments are the best incumbent at the interrupt, not a
	// completed (optimal or budget-exhausted) outcome. Config-level
	// node/time budgets do not set it.
	Degraded bool
	// Materialized reports whether the outcome was written back into the
	// engine's tables; false when DeferDegraded suppressed a degraded
	// materialization (or the solve found nothing to materialize).
	Materialized bool
}

// GroundInfo reports the incremental grounder's work for one solve.
type GroundInfo struct {
	// Mode is "full" for a ground from scratch (first solve, structural
	// var-table change, or compaction) and "incremental" otherwise.
	Mode string
	// Rule-level outcome counts for the incremental mode.
	RulesReused, RulesPatched, RulesReground int
	// ConstsPatched counts constant nodes rewritten in place.
	ConstsPatched int
}

// Feasible reports whether the result carries a usable assignment.
func (r *SolveResult) Feasible() bool {
	return r.Status == solver.StatusOptimal || r.Status == solver.StatusFeasible
}

// Solve grounds the program's solver rules against the current database,
// runs the constraint solver, and materializes the optimization output
// (goal and var tables) back into the engine, triggering downstream rule
// reevaluation. The log is committed before the result is returned; a
// failed commit returns only the error.
func (n *Node) Solve(opts SolveOptions) (*SolveResult, error) {
	n.mu.Lock()
	res, err := n.solveLocked(opts)
	if cerr := n.commit(); cerr != nil {
		n.mu.Unlock()
		return nil, cerr
	}
	if n.holding {
		n.mu.Unlock()
		return res, err
	}
	out := n.takeOutbox()
	n.mu.Unlock()
	if ferr := n.flush(out); err == nil && ferr != nil {
		err = ferr
	}
	return res, err
}

func (n *Node) solveLocked(opts SolveOptions) (*SolveResult, error) {
	n.stats.Solves++
	if n.cfg.SolverIncremental {
		return n.solveIncrementalLocked(opts)
	}
	groundStart := time.Now()
	g := &grounder{
		n:     n,
		model: solver.NewModel(),
		sym:   map[string][]symTuple{},
	}
	if err := g.createVars(); err != nil {
		return nil, err
	}
	res := &SolveResult{}
	if g.model.NumVars() == 0 {
		// Nothing to optimize (e.g. no rows in the forall tables).
		res.Status = solver.StatusOptimal
		n.LastSolveResult = res
		return res, nil
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
	res.GroundWall = time.Since(groundStart)
	return n.finishSolve(g, opts, res)
}

// finishSolve runs the solver over a grounded model and materializes the
// result: the phase shared by the fresh and incremental grounding paths.
func (n *Node) finishSolve(g *grounder, opts SolveOptions, res *SolveResult) (*SolveResult, error) {
	// Classify the grounded constraints into propagator shapes while still
	// in the grounding phase: the solver consumes the classification (its
	// linear propagators are built from it), and repeated solves reuse it.
	g.model.Prepare()
	res.Shapes = g.model.ShapeStats()

	sopts := solver.Options{
		MaxTime:       n.cfg.SolverMaxTime,
		MaxNodes:      n.cfg.SolverMaxNodes,
		Propagate:     n.cfg.SolverPropagate,
		FirstSolution: opts.FirstSolution,
		Fixpoint:      n.cfg.SolverFixpoint,
		Restarts:      n.cfg.SolverRestarts,
		PhaseSaving:   n.cfg.SolverRestarts > 0,
	}
	if opts.MaxTime > 0 {
		sopts.MaxTime = opts.MaxTime
	}
	if opts.ValueOrder != nil {
		sopts.ValueOrder = opts.ValueOrder
	}
	if opts.Interrupt != nil {
		sopts.Interrupt = opts.Interrupt
	}
	if opts.Hint != nil {
		sopts.Hints = map[int]int64{}
		for _, inst := range g.insts {
			vals := make([]colog.Value, len(inst.vals))
			for i, gv := range inst.vals {
				if gv.isSym() {
					vals[i] = colog.IntVal(0)
				} else {
					vals[i] = gv.val
				}
			}
			if h, ok := opts.Hint(inst.pred, vals); ok {
				sopts.Hints[inst.v.ID] = h
			}
		}
	} else if n.cfg.SolverWarmStart {
		sopts.Hints = n.warmStartHints(g)
	}
	sol := g.model.Solve(sopts)
	res.Status = sol.Status
	res.NumVars = g.model.NumVars()
	res.NumCons = g.model.NumConstraints()
	res.Stats = sol.Stats
	res.Degraded = sol.Stats.Interrupted

	if !sol.Feasible() {
		n.LastSolveResult = res
		return res, nil
	}
	res.Objective = sol.Objective
	if obj, _ := g.model.Objective(); obj != nil {
		res.HasGoal = true
	}
	// Concrete assignments.
	for _, inst := range g.insts {
		vals := make([]colog.Value, len(inst.vals))
		for i, gv := range inst.vals {
			if gv.isSym() {
				vals[i] = colog.IntVal(sol.Value(inst.v))
			} else {
				vals[i] = gv.val
			}
		}
		res.Assignments = append(res.Assignments, Assignment{Pred: inst.pred, Vals: vals})
	}
	if opts.DeferDegraded && res.Degraded {
		// A deadline-interrupted incumbent must not reach the tables: the
		// insert/retract churn would advance arrival-order seqs and the
		// WAL in a way no batch re-solve over the same facts reproduces.
		// The caller publishes the incumbent as an overlay instead.
		n.LastSolveResult = res
		return res, nil
	}
	if err := n.materialize(g, res); err != nil {
		return res, err
	}
	res.Materialized = true
	n.LastSolveResult = res
	return res, nil
}

// matTable is one predicate's materialized solver output — the unit the
// write-ahead log records per solve, in sorted predicate order, so a
// replayed materialization installs tuples in exactly the live order.
type matTable struct {
	pred   string
	tuples []Tuple
}

// materialize writes the optimization output back into the engine: var
// tables receive the concrete assignments, the goal table the objective
// value. Previous materializations of keyless tables are retracted first so
// repeated solves replace rather than accumulate. The whole outcome is
// logged as one solve record before it is applied, so a crash either
// persists the full materialization or none of it.
func (n *Node) materialize(g *grounder, res *SolveResult) error {
	byPred := map[string][]Tuple{}
	for _, a := range res.Assignments {
		byPred[a.Pred] = append(byPred[a.Pred], Tuple{a.Pred, a.Vals})
	}
	mats := make([]matTable, 0, len(byPred))
	for pred, tuples := range byPred {
		mats = append(mats, matTable{pred: pred, tuples: tuples})
	}
	sort.Slice(mats, func(i, j int) bool { return mats[i].pred < mats[j].pred })
	// Goal tuple.
	var goalTuple *Tuple
	if goal := n.prog.res.Program.Goal; goal != nil && goal.Sense != colog.GoalSatisfy && res.HasGoal {
		vals := make([]colog.Value, len(goal.Atom.Args))
		okAll := true
		for i, arg := range goal.Atom.Args {
			switch t := arg.(type) {
			case *colog.VarTerm:
				if t.Name == goal.VarName {
					vals[i] = colog.FloatVal(res.Objective)
				} else if t.Loc {
					vals[i] = colog.StringVal(n.Addr)
				} else if v, ok := g.genv[t.Name]; ok {
					vals[i] = v
				} else {
					okAll = false
				}
			case *colog.ConstTerm:
				vals[i] = t.Val
			default:
				okAll = false
			}
		}
		if okAll {
			t := Tuple{goal.Atom.Pred, vals}
			goalTuple = &t
		}
	}

	n.walSolve(mats, goalTuple)
	return n.applyMaterialization(mats, goalTuple)
}

// applyMaterialization installs a solve outcome — shared between a live
// materialize and log replay, so both take the identical delta sequence.
func (n *Node) applyMaterialization(mats []matTable, goalTuple *Tuple) error {
	for _, mt := range mats {
		pred, tuples := mt.pred, mt.tuples
		tbl := n.tables[pred]
		// Unkeyed tables: retract the previous solve's output so repeated
		// solves replace it, diffing against it first so rows the new
		// solution keeps produce no delta traffic at all. Keyed tables
		// (e.g. the wireless assign table, keyed on the link) replace per
		// key on insert and accumulate results across per-link
		// negotiations.
		if tbl != nil && !tbl.event && tbl.keyCols == nil {
			newCount := make(map[string]int, len(tuples))
			for _, t := range tuples {
				newCount[valsKey(t.Vals)]++
			}
			skip := make(map[string]int, len(tuples))
			for _, old := range n.lastMaterialized[pred] {
				k := valsKey(old.Vals)
				if newCount[k] > 0 {
					newCount[k]--
					skip[k]++
					continue
				}
				n.enqueue(delta{old, -1, false})
			}
			for _, t := range tuples {
				k := valsKey(t.Vals)
				if skip[k] > 0 {
					skip[k]--
					continue
				}
				n.enqueue(delta{t, +1, false})
			}
		} else {
			for _, t := range tuples {
				n.enqueue(delta{t, +1, false})
			}
		}
		n.lastMaterialized[pred] = tuples
	}
	if goalTuple != nil {
		tbl := n.tables[goalTuple.Pred]
		if tbl != nil && !tbl.event {
			for _, old := range n.lastMaterialized[goalTuple.Pred] {
				n.enqueue(delta{old, -1, false})
			}
		}
		n.enqueue(delta{*goalTuple, +1, false})
		n.lastMaterialized[goalTuple.Pred] = []Tuple{*goalTuple}
	}
	return n.drain()
}

// createVars instantiates decision variables per var declaration: one
// variable for each row of the forall table (paper section 4.2).
func (g *grounder) createVars() error {
	for _, vd := range g.n.prog.res.Program.Vars {
		forallRows := g.n.tables[vd.ForAll.Pred]
		if forallRows == nil {
			return everrf("var", "forall table %s unknown", vd.ForAll.Pred)
		}
		dom, err := g.domainFor(vd)
		if err != nil {
			return err
		}
		for _, rowVals := range forallRows.snapshotStable() {
			env := map[string]colog.Value{}
			if !matchAtom(vd.ForAll, rowVals, env) {
				continue
			}
			st := make(symTuple, len(vd.Decl.Args))
			var inst varInstance
			inst.pred = vd.Decl.Pred
			for i, arg := range vd.Decl.Args {
				v := arg.(*colog.VarTerm)
				if bound, ok := env[v.Name]; ok {
					st[i] = gval{val: bound}
					continue
				}
				name := fmt.Sprintf("%s[%s]#%d", vd.Decl.Pred, valsKey(rowVals), i)
				sv := g.model.VarWithDomain(name, dom)
				st[i] = gval{sym: g.model.VarExpr(sv)}
				inst.v = sv
			}
			inst.vals = st
			g.insts = append(g.insts, inst)
			g.sym[vd.Decl.Pred] = append(g.sym[vd.Decl.Pred], st)
		}
	}
	return nil
}

func (g *grounder) domainFor(vd *colog.VarDecl) (solver.Domain, error) {
	d := vd.Domain
	if d == nil {
		return solver.BinaryDomain(), nil
	}
	switch {
	case d.FromTable != "":
		tbl := g.n.tables[d.FromTable]
		if tbl == nil {
			return solver.Domain{}, everrf("var", "domain table %s unknown", d.FromTable)
		}
		var vals []int64
		for _, rowVals := range tbl.snapshotStable() {
			last := rowVals[len(rowVals)-1]
			if last.Kind != colog.KindInt {
				return solver.Domain{}, everrf("var", "domain table %s has non-integer value %s", d.FromTable, last)
			}
			vals = append(vals, last.I)
		}
		if len(vals) == 0 {
			return solver.Domain{}, everrf("var", "domain table %s is empty", d.FromTable)
		}
		return solver.NewDomain(vals...), nil
	case d.Explicit != nil:
		return solver.NewDomain(d.Explicit...), nil
	default:
		return solver.NewRangeDomain(d.Lo, d.Hi), nil
	}
}

// deriveSolverRules evaluates solver derivation rules bottom-up in
// dependency order, building symbolic tuples and definitional constraints.
// Rules within one dependency level only read predicates produced by
// earlier levels; each rule's symbolic tuples and deferred constraints are
// merged in rule order once the whole level is grounded.
func (g *grounder) deriveSolverRules() error {
	rules := g.n.prog.res.Program.Rules
	for _, level := range g.n.prog.levels {
		runs, err := g.groundRules(level)
		if err != nil {
			return err
		}
		for i, ri := range level {
			head := rules[ri].Head.Pred
			if len(runs[i].out) > 0 {
				g.sym[head] = append(g.sym[head], runs[i].out...)
				g.invalidatePred(head)
			}
			for _, e := range runs[i].reqs {
				g.model.Require(e)
			}
			g.noteCacheRun(ri, runs[i])
		}
	}
	return nil
}

// groundRules grounds independent solver rules one after another and
// returns their runs in rule order. Every run is bound before the first is
// grounded, so each reads the rows as they stood before the batch.
func (g *grounder) groundRules(ris []int) ([]*groundRun, error) {
	runs := make([]*groundRun, len(ris))
	for i, ri := range ris {
		runs[i] = g.newGroundRun(g.n.prog.ground[ri])
	}
	for _, run := range runs {
		if err := g.runRule(run); err != nil {
			return nil, err
		}
	}
	return runs, nil
}

// groundRun is the per-rule evaluation state of one grounding: the plan's
// joins bound to this solve's rows, the binding frame, the head tuples a
// constraint rule seeds from, the deferred constraint posts (merged in rule
// order after the batch), the emitted head tuples, and (in recording mode)
// the provenance recorder feeding the incremental grounding cache.
type groundRun struct {
	plan  *groundPlan
	src   []joinSrc // parallel to plan.steps
	frame *symFrame
	heads []symTuple
	rec   *runRecorder
	reqs  []*solver.Expr
	out   []symTuple
}

func (r *groundRun) require(e *solver.Expr) { r.reqs = append(r.reqs, e) }

// joinSrc is one join step's rows for one grounding. For a ground
// predicate, scan is the table's arrival-order snapshot and gidx the
// persistent index probed when the bound prefix is ground; for a solver
// predicate, symRows/groundRows are the symbolic tuples and the unshadowed
// materialized rows. provCache memoizes per-row provenance cells in
// recording mode.
type joinSrc struct {
	scan       [][]colog.Value
	gidx       *tableIndex
	symRows    []symTuple
	groundRows [][]colog.Value
	provCache  map[string][]cellProv
	provKeyBuf []byte
}

// newGroundRun binds a ground plan to the current rows: each join's
// snapshot or index, a solver predicate's symbolic and ground rows, and a
// constraint rule's head tuples. It attaches a provenance recorder (seeded
// with the plan's static join-column taints) when the grounder is
// recording.
func (g *grounder) newGroundRun(p *groundPlan) *groundRun {
	run := &groundRun{plan: p, src: make([]joinSrc, len(p.steps)), frame: newSymFrame(p.slots)}
	for i := range p.steps {
		step := &p.steps[i]
		if step.kind != stepJoin {
			continue
		}
		src := &run.src[i]
		if step.solver {
			src.symRows = g.sym[step.atom.Pred]
			src.groundRows = g.cachedGroundRows(step.atom.Pred)
			continue
		}
		tbl := g.n.tables[step.atom.Pred]
		src.scan = tbl.snapshotStable()
		if len(step.boundCols) > 0 {
			src.gidx = tbl.ensureIndexNamed(step.idxKey, step.boundCols)
		}
	}
	if p.constraint {
		run.heads = g.sym[p.rule.Head.Pred]
	}
	if g.recording {
		run.rec = newRunRecorder()
		run.rec.addPlanTaints(p)
		run.frame.rec = run.rec
	}
	return run
}

// runRule grounds one solver rule over its bound run.
func (g *grounder) runRule(run *groundRun) error {
	p := run.plan
	switch {
	case p.constraint:
		return g.groundConstraint(run)
	case p.rule.Head.HasAggregate():
		return g.collectAggregate(run)
	}
	return g.execPlan(run, 0, func(f *symFrame) error {
		st := make(symTuple, len(p.rule.Head.Args))
		for i, arg := range p.rule.Head.Args {
			gv, err := g.evalSym(arg, f, p.label)
			if err != nil {
				return err
			}
			// A ground cell emitted into the head flows into downstream
			// rules: its source column is structural for this rule.
			if gv.prov != nil && !gv.isSym() {
				run.rec.taint(gv.prov)
			}
			st[i] = gv
		}
		run.out = append(run.out, st)
		return nil
	})
}

// execPlan runs the ordered body steps from idx onward, invoking sink for
// every complete binding. Join steps stream their rows (streamJoin);
// bindings are trailed on the frame and undone per candidate row.
func (g *grounder) execPlan(run *groundRun, idx int, sink func(*symFrame) error) error {
	p := run.plan
	if idx == len(p.steps) {
		return sink(run.frame)
	}
	f := run.frame
	step := &p.steps[idx]
	switch step.kind {
	case stepJoin:
		return g.streamJoin(run, idx, sink)
	case stepFilter:
		gv, err := g.evalSym(step.cond, f, p.label)
		if err != nil {
			return err
		}
		if !gv.isSym() {
			if gv.prov != nil {
				run.rec.taint(gv.prov) // a bare cell deciding control flow
			}
			if gv.val.Kind != colog.KindBool {
				return everrf(p.label, "condition %s evaluated to non-boolean %s", step.cond, gv.val)
			}
			if !gv.val.B {
				return nil // filtered out
			}
			return g.execPlan(run, idx+1, sink)
		}
		// Symbolic selection: becomes a solver constraint scoped to this
		// binding (selection-to-constraint compilation, paper section 5.3).
		if !gv.sym.IsBool() {
			return everrf(p.label, "condition %s is symbolic but not boolean", step.cond)
		}
		run.require(gv.sym)
		return g.execPlan(run, idx+1, sink)
	case stepBind, stepAssign:
		gv, err := g.evalSym(step.expr, f, p.label)
		if err != nil {
			return err
		}
		if step.rebind {
			// Reassignment of a bound variable: restore the previous value
			// on backtrack instead of trailing a fresh binding.
			prev := f.vals[step.slot]
			f.vals[step.slot] = gv
			err := g.execPlan(run, idx+1, sink)
			f.vals[step.slot] = prev
			return err
		}
		m := f.mark()
		f.bind(step.slot, gv)
		if err := g.execPlan(run, idx+1, sink); err != nil {
			return err
		}
		f.undo(m)
		return nil
	case stepReify:
		// Reified: (C==k)==(bool-expr)  =>  C := ITE(bool, k, other).
		gv, err := g.evalSym(step.expr, f, p.label)
		if err != nil {
			return err
		}
		be, err := g.toExpr(gv, p.label, run.rec)
		if err != nil {
			return err
		}
		if !be.IsBool() {
			return everrf(p.label, "reified binding (%s==%d)==(%s): right side is not boolean", step.bindVar, step.k, step.expr)
		}
		other := int64(0)
		if step.k == 0 {
			other = 1
		}
		ite := g.model.ITE(be, g.model.ConstInt(step.k), g.model.ConstInt(other))
		m := f.mark()
		f.bind(step.slot, gval{sym: ite})
		if err := g.execPlan(run, idx+1, sink); err != nil {
			return err
		}
		f.undo(m)
		return nil
	}
	return everrf(p.label, "unknown grounding step")
}

// matchSymRow unifies compiled atom ops against a symbolic tuple.
// Ground-vs-ground mismatches fail the match; binding a variable to a
// symbolic value is allowed; comparing two symbolic values posts an
// equality constraint (the wireless channel-symmetry idiom
// assign(X,Y,C) -> assign(Y,X,C)). Constraints posted before a later
// argument fails the match are kept, matching the seed grounder's
// behavior.
func (g *grounder) matchSymRow(run *groundRun, ops []argOp, st symTuple, label string) (bool, error) {
	if len(ops) != len(st) {
		return false, nil
	}
	f := run.frame
	for i := range ops {
		op := &ops[i]
		switch op.kind {
		case argBind:
			f.bind(op.slot, st[i])
		case argCheck:
			bound := f.vals[op.slot]
			if !bound.isSym() && !st[i].isSym() {
				if !bound.val.Equal(st[i].val) {
					return false, nil
				}
				continue
			}
			// Symbolic on either side: require equality in the model.
			le, err := g.toExpr(bound, label, run.rec)
			if err != nil {
				return false, err
			}
			re, err := g.toExpr(st[i], label, run.rec)
			if err != nil {
				return false, err
			}
			run.require(g.model.Eq(le, re))
		case argConst:
			if st[i].isSym() {
				e, err := g.toExpr(st[i], label, run.rec)
				if err != nil {
					return false, err
				}
				run.require(g.model.Eq(e, g.model.Const(op.val.Num())))
				continue
			}
			if !op.val.Equal(st[i].val) {
				return false, nil
			}
		case argExpr:
			return false, everrf(label, "unsupported atom argument %s during grounding", op.term)
		}
	}
	return true, nil
}

// toExpr lifts a gval into a solver expression. Ground numeric cells become
// constant nodes; in recording mode the constant's provenance is registered
// so a later change to the cell can patch it in place, while ground booleans
// (whose value shapes the expression) taint their source column instead.
func (g *grounder) toExpr(gv gval, label string, rec *runRecorder) (*solver.Expr, error) {
	if gv.isSym() {
		return gv.sym, nil
	}
	if !gv.val.IsNumeric() && gv.val.Kind != colog.KindBool {
		return nil, everrf(label, "cannot lift %s into a solver expression", gv.val)
	}
	if gv.val.Kind == colog.KindBool {
		if gv.prov != nil {
			rec.taint(gv.prov)
		}
		return g.model.Bool(gv.val.B), nil
	}
	e := g.model.Const(gv.val.Num())
	if gv.prov != nil {
		rec.ref(e, gv.prov)
	}
	return e, nil
}

// evalSym evaluates a term under a symbolic frame: ground subterms fold to
// constants, symbolic subterms build solver expression nodes.
func (g *grounder) evalSym(t colog.Term, env *symFrame, label string) (gval, error) {
	switch x := t.(type) {
	case *colog.ConstTerm:
		return gval{val: x.Val}, nil
	case *colog.VarTerm:
		gv, ok := env.lookupVar(x.Name)
		if !ok {
			return gval{}, everrf(label, "unbound variable %s during grounding", x.Name)
		}
		return gv, nil
	case *colog.ParamTerm:
		return gval{}, everrf(label, "unbound parameter %s (bind via Config.Params)", x.Name)
	case *colog.BinTerm:
		l, err := g.evalSym(x.L, env, label)
		if err != nil {
			return gval{}, err
		}
		r, err := g.evalSym(x.R, env, label)
		if err != nil {
			return gval{}, err
		}
		if !l.isSym() && !r.isSym() {
			// Folding consumes the cell values structurally: the result no
			// longer tracks a single source cell, so taint both inputs.
			if l.prov != nil {
				env.rec.taint(l.prov)
			}
			if r.prov != nil {
				env.rec.taint(r.prov)
			}
			v, err := applyBin(x.Op, l.val, r.val)
			if err != nil {
				return gval{}, everrf(label, "%v", err)
			}
			return gval{val: v}, nil
		}
		le, err := g.toExpr(l, label, env.rec)
		if err != nil {
			return gval{}, err
		}
		re, err := g.toExpr(r, label, env.rec)
		if err != nil {
			return gval{}, err
		}
		return g.applySymBin(x.Op, le, re, label)
	case *colog.NegTerm:
		v, err := g.evalSym(x.X, env, label)
		if err != nil {
			return gval{}, err
		}
		if !v.isSym() {
			if v.prov != nil {
				env.rec.taint(v.prov)
			}
			nv, err := applyNeg(v.val)
			if err != nil {
				return gval{}, everrf(label, "%v", err)
			}
			return gval{val: nv}, nil
		}
		return gval{sym: g.model.Neg(v.sym)}, nil
	case *colog.NotTerm:
		v, err := g.evalSym(x.X, env, label)
		if err != nil {
			return gval{}, err
		}
		if !v.isSym() {
			if v.prov != nil {
				env.rec.taint(v.prov)
			}
			nv, err := applyNot(v.val)
			if err != nil {
				return gval{}, everrf(label, "%v", err)
			}
			return gval{val: nv}, nil
		}
		return gval{sym: g.model.Not(v.sym)}, nil
	case *colog.AbsTerm:
		v, err := g.evalSym(x.X, env, label)
		if err != nil {
			return gval{}, err
		}
		if !v.isSym() {
			if v.prov != nil {
				env.rec.taint(v.prov)
			}
			av, err := applyAbs(v.val)
			if err != nil {
				return gval{}, everrf(label, "%v", err)
			}
			return gval{val: av}, nil
		}
		return gval{sym: g.model.Abs(v.sym)}, nil
	case *colog.FuncTerm:
		args := make([]colog.Value, len(x.Args))
		for i, a := range x.Args {
			gv, err := g.evalSym(a, env, label)
			if err != nil {
				return gval{}, err
			}
			if gv.isSym() {
				return gval{}, everrf(label, "function %s over symbolic arguments is not supported", x.Name)
			}
			if gv.prov != nil {
				env.rec.taint(gv.prov)
			}
			args[i] = gv.val
		}
		v, err := applyFunc(x.Name, args)
		if err != nil {
			return gval{}, everrf(label, "%v", err)
		}
		return gval{val: v}, nil
	}
	return gval{}, everrf(label, "unsupported term %T during grounding", t)
}

func (g *grounder) applySymBin(op colog.BinOp, l, r *solver.Expr, label string) (gval, error) {
	m := g.model
	switch op {
	case colog.OpAdd:
		return gval{sym: m.Add(l, r)}, nil
	case colog.OpSub:
		return gval{sym: m.Sub(l, r)}, nil
	case colog.OpMul:
		// MulKeep: a folded-away constant could never be patched in place
		// by the incremental grounder (see solver.Model.MulKeep).
		return gval{sym: m.MulKeep(l, r)}, nil
	case colog.OpDiv:
		return gval{sym: m.Div(l, r)}, nil
	case colog.OpEq:
		return gval{sym: m.Eq(l, r)}, nil
	case colog.OpNe:
		return gval{sym: m.Ne(l, r)}, nil
	case colog.OpLt:
		return gval{sym: m.Lt(l, r)}, nil
	case colog.OpLe:
		return gval{sym: m.Le(l, r)}, nil
	case colog.OpGt:
		return gval{sym: m.Gt(l, r)}, nil
	case colog.OpGe:
		return gval{sym: m.Ge(l, r)}, nil
	case colog.OpAnd:
		return gval{sym: m.And(l, r)}, nil
	case colog.OpOr:
		return gval{sym: m.Or(l, r)}, nil
	}
	return gval{}, everrf(label, "unsupported symbolic operator %s", op)
}

// collectAggregate evaluates an aggregate-head rule: matches are grouped by
// the ground head attributes as they stream out of the plan, then one
// aggregate expression per group (SUM -> solver.Sum, STDEV ->
// solver.StdDev, ...) is emitted — the compilation of aggregations over
// solver attributes described in section 5.3.
func (g *grounder) collectAggregate(run *groundRun) error {
	rule, label := run.plan.rule, run.plan.label
	aggPos := -1
	var aggTerm *colog.AggTerm
	for i, arg := range rule.Head.Args {
		if at, ok := arg.(*colog.AggTerm); ok {
			if aggPos >= 0 {
				return everrf(label, "multiple aggregates in head")
			}
			aggPos, aggTerm = i, at
		}
	}
	type group struct {
		vals  []gval
		items []gval
	}
	groups := map[string]*group{}
	var order []string
	err := g.execPlan(run, 0, func(f *symFrame) error {
		headVals := make([]gval, len(rule.Head.Args))
		keyParts := ""
		for i, arg := range rule.Head.Args {
			if i == aggPos {
				continue
			}
			gv, err := g.evalSym(arg, f, label)
			if err != nil {
				return err
			}
			if gv.isSym() {
				return everrf(label, "aggregate group-by attribute %d is symbolic", i)
			}
			if gv.prov != nil {
				run.rec.taint(gv.prov) // grouping key: structural
			}
			headVals[i] = gv
			keyParts += gv.key() + "|"
		}
		item, ok := f.lookupVar(aggTerm.Over)
		if !ok {
			return everrf(label, "aggregate variable %s unbound", aggTerm.Over)
		}
		grp := groups[keyParts]
		if grp == nil {
			grp = &group{vals: headVals}
			groups[keyParts] = grp
			order = append(order, keyParts)
		}
		grp.items = append(grp.items, item)
		return nil
	})
	if err != nil {
		return err
	}
	for _, k := range order {
		grp := groups[k]
		agg, err := g.buildAggExpr(aggTerm.Func, grp.items, label, run.rec)
		if err != nil {
			return err
		}
		st := make(symTuple, len(rule.Head.Args))
		for i := range rule.Head.Args {
			if i == aggPos {
				st[i] = agg
			} else {
				st[i] = grp.vals[i]
			}
		}
		run.out = append(run.out, st)
	}
	return nil
}

func (g *grounder) buildAggExpr(fn colog.AggFunc, items []gval, label string, rec *runRecorder) (gval, error) {
	allGround := true
	for _, it := range items {
		if it.isSym() {
			allGround = false
			break
		}
	}
	if allGround {
		// Pure ground aggregation: compute the value directly. The folded
		// result stops tracking individual cells, so taint every input.
		m := map[string]*aggItem{}
		for _, it := range items {
			if it.prov != nil {
				rec.taint(it.prov)
			}
			k := it.val.Key()
			if m[k] == nil {
				m[k] = &aggItem{val: it.val}
			}
			m[k].count++
		}
		v, err := computeAggregate(fn, m)
		if err != nil {
			return gval{}, everrf(label, "%v", err)
		}
		return gval{val: v}, nil
	}
	exprs := make([]*solver.Expr, len(items))
	for i, it := range items {
		e, err := g.toExpr(it, label, rec)
		if err != nil {
			return gval{}, err
		}
		exprs[i] = e
	}
	m := g.model
	switch fn {
	case colog.AggSum:
		return gval{sym: m.Sum(exprs...)}, nil
	case colog.AggSumAbs:
		return gval{sym: m.SumAbs(exprs...)}, nil
	case colog.AggCount:
		return gval{val: colog.IntVal(int64(len(exprs)))}, nil
	case colog.AggMin:
		return gval{sym: m.Min(exprs...)}, nil
	case colog.AggMax:
		return gval{sym: m.Max(exprs...)}, nil
	case colog.AggAvg:
		return gval{sym: m.Avg(exprs...)}, nil
	case colog.AggStdev:
		return gval{sym: m.StdDev(exprs...)}, nil
	case colog.AggUnique:
		return gval{sym: m.CountDistinct(exprs...)}, nil
	}
	return gval{}, everrf(label, "unsupported aggregate %s over solver attributes", fn)
}

// applyConstraintRules grounds solver constraint rules: for every symbolic
// head tuple and every match of the rule body, the conjunction of the
// expression literals is posted as a solver constraint (section 5.4).
// Constraint rules only read the derived symbolic tuples, so they are
// independent of each other: each rule's constraints are buffered and
// merged in rule order afterwards.
func (g *grounder) applyConstraintRules() error {
	runs, err := g.groundRules(g.n.prog.consIdx)
	if err != nil {
		return err
	}
	for i, ri := range g.n.prog.consIdx {
		for _, e := range runs[i].reqs {
			g.model.Require(e)
		}
		g.noteCacheRun(ri, runs[i])
	}
	return nil
}

// groundConstraint grounds one constraint rule: for every symbolic head
// tuple, every body match must hold — expression literals become
// constraints via the symbolic filter path, and symbolic matches in
// matchSymRow post equality constraints.
func (g *grounder) groundConstraint(run *groundRun) error {
	for _, st := range run.heads {
		run.frame.reset()
		if !seedHead(run.plan.seed, st, run.frame) {
			continue
		}
		if err := g.execPlan(run, 0, func(*symFrame) error { return nil }); err != nil {
			return err
		}
	}
	return nil
}

// seedHead binds one symbolic head tuple into the frame for a constraint
// rule. Constants and repeated variables must match ground values exactly;
// any symbolic value at such a position skips the tuple (matching the seed
// grounder's behavior).
func seedHead(seed []argOp, st symTuple, f *symFrame) bool {
	if len(seed) != len(st) {
		return false
	}
	for i := range seed {
		op := &seed[i]
		switch op.kind {
		case argBind:
			f.bind(op.slot, st[i])
		case argCheck:
			prev := f.vals[op.slot]
			if prev.isSym() || st[i].isSym() || !prev.val.Equal(st[i].val) {
				return false
			}
		case argConst:
			if st[i].isSym() || !op.val.Equal(st[i].val) {
				return false
			}
		}
	}
	return true
}

// setGoal locates the objective among the grounded tuples and installs it.
func (g *grounder) setGoal() error {
	objective, found, err := g.computeGoal()
	if err != nil {
		return err
	}
	if !found {
		// No goal tuple derived (e.g. no interfering pairs for the link
		// under negotiation): degrade to a satisfy problem over the posted
		// constraints.
		return nil
	}
	if g.n.prog.res.Program.Goal.Sense == colog.GoalMinimize {
		g.model.Minimize(objective)
	} else {
		g.model.Maximize(objective)
	}
	return nil
}

// installGoal is setGoal's incremental twin: it re-derives the objective
// and swaps it in only when it actually changed, so a tick whose goal tuple
// re-derives to the same cached expression keeps the model's search
// metadata valid.
func (g *grounder) installGoal() error {
	objective, found, err := g.computeGoal()
	if err != nil {
		return err
	}
	sense := solver.Satisfy
	if found {
		if g.n.prog.res.Program.Goal.Sense == colog.GoalMinimize {
			sense = solver.Minimize
		} else {
			sense = solver.Maximize
		}
	} else {
		objective = nil
	}
	g.model.SetObjective(objective, sense)
	return nil
}

// computeGoal locates the objective expression among the grounded tuples of
// the goal predicate, binding g.genv as a side effect. found is false for
// satisfy programs and when no tuple matches the goal atom.
func (g *grounder) computeGoal() (*solver.Expr, bool, error) {
	goal := g.n.prog.res.Program.Goal
	if goal == nil || goal.Sense == colog.GoalSatisfy {
		return nil, false, nil
	}
	// Symbolic tuples first, then the unshadowed ground rows: the order a
	// streamed join enumerates the predicate in.
	pred := goal.Atom.Pred
	ground := g.cachedGroundRows(pred)
	rows := make([]symTuple, 0, len(g.sym[pred])+len(ground))
	rows = append(rows, g.sym[pred]...)
	for _, vals := range ground {
		st := make(symTuple, len(vals))
		for j, v := range vals {
			st[j] = gval{val: v}
		}
		rows = append(rows, st)
	}
	var objective *solver.Expr
	found := false
	for _, st := range rows {
		env := map[string]gval{}
		ok := true
		var objVal gval
		for i, arg := range goal.Atom.Args {
			v, isVar := arg.(*colog.VarTerm)
			if !isVar {
				if c, isConst := arg.(*colog.ConstTerm); isConst && !st[i].isSym() && c.Val.Equal(st[i].val) {
					continue
				}
				ok = false
				break
			}
			if v.Name == goal.VarName {
				objVal = st[i]
				continue
			}
			if v.Loc && !st[i].isSym() && locAddr(st[i].val) != g.n.Addr {
				ok = false
				break
			}
			env[v.Name] = st[i]
		}
		if !ok {
			continue
		}
		if found {
			return nil, false, everrf("goal", "multiple tuples match goal atom %s", goal.Atom)
		}
		found = true
		e, err := g.toExpr(objVal, "goal", nil)
		if err != nil {
			return nil, false, err
		}
		objective = e
		g.genv = map[string]colog.Value{}
		for k, gv := range env {
			if !gv.isSym() {
				g.genv[k] = gv.val
			}
		}
	}
	return objective, found, nil
}
