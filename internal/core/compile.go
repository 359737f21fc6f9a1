package core

import (
	"fmt"

	"repro/internal/analysis"
	"repro/internal/colog"
)

// stepKind enumerates the operators of a compiled rule plan.
type stepKind int

const (
	stepJoin   stepKind = iota // join a body atom against its rows
	stepFilter                 // boolean condition (a posted constraint when symbolic)
	stepBind                   // definitional equality Var == expr
	stepAssign                 // Var := expr
	stepReify                  // reified binding (Var==k)==(bool-expr); ground plans only
)

// planStep is one operator of a compiled rule plan. planBody orders and
// compiles every kind of plan: delta plans, DRed recompute plans and
// ground plans.
type planStep struct {
	kind    stepKind
	atom    *colog.Atom // stepJoin
	cond    colog.Term  // stepFilter
	bindVar string      // stepBind / stepAssign / stepReify target
	expr    colog.Term  // stepBind / stepAssign / stepReify right-hand side
	k       int64       // stepReify constant
	// boundCols are the join atom's argument positions already bound when
	// this step runs (constants or previously bound variables); non-empty
	// sets drive an index probe instead of a table scan.
	boundCols []int
	// argOps are the compiled unification ops for a join atom; probeOps
	// build the index probe key from the frame (parallel to boundCols);
	// preCmps is the pushed-down prefilter evaluated on raw rows before the
	// frame is extended (see stream.go).
	argOps   []argOp
	probeOps []probeOp
	preCmps  []rowCmp
	// idxKey names the probed column set. The index pointer itself is
	// memoized per node (planRun) or per ground (joinSrc), since every node
	// has its own tables.
	idxKey string
	// solver marks a ground-plan join over a solver predicate: it streams
	// the symbolic tuples, then the unshadowed materialized rows, and never
	// probes an index.
	solver bool
	// slot is the frame slot written by stepBind / stepAssign / stepReify;
	// rebind marks an assignment whose target is already bound at this
	// point in the plan (executed by saving and restoring the previous
	// value, since the undo trail only tracks fresh bindings).
	slot   int
	rebind bool
}

// headOp projects one plain-head argument from the frame: a direct slot
// copy for variables, a term evaluation otherwise.
type headOp struct {
	slot int // -1: evaluate term
	term colog.Term
}

// plan is a compiled regular rule. A delta plan runs when a tuple of its
// trigger predicate changes: the trigger binds first, then the remaining
// steps run in order, producing head tuples. This is the dataflow of
// pipelined semi-naive evaluation — one plan per (rule, body atom) pair. A
// recompute plan (trigger nil) evaluates the whole body over a recursive
// group's working rows (see dred.go). Plans belong to a Program and are
// shared read-only by every node built from it; a node's mutable state for
// a plan (binding frame, index memo) lives in its planRun, found by id.
type plan struct {
	id       int // dense index into Node.runs
	rule     *colog.Rule
	ruleIdx  int
	trigger  *colog.Atom
	steps    []planStep
	headAggs []int // head argument positions that are aggregates (empty for plain heads)
	slots    *ruleSlots
	headOps  []headOp // plain heads only
}

// groundPlan is the compiled body of one solver rule, shared read-only by
// every grounding of every node built from the Program. A constraint rule
// seeds the frame from each symbolic head tuple before its body runs.
type groundPlan struct {
	rule       *colog.Rule
	label      string
	slots      *ruleSlots
	steps      []planStep
	constraint bool
	seed       []argOp // constraint rules: head seeding ops
}

// compileRules builds the delta plans for all regular rules of the analyzed
// program over the given per-rule slot layouts, indexed by trigger
// predicate, and returns the number of plans built.
func compileRules(res *analysis.Result, slots []*ruleSlots) (map[string][]*plan, int, error) {
	plans := map[string][]*plan{}
	nplans := 0
	for ri, r := range res.Program.Rules {
		if res.Classes[ri] != analysis.RegularRule {
			continue // solver rules are executed by the grounder
		}
		ntrig := 0
		for _, l := range r.Body {
			al, ok := l.(*colog.AtomLit)
			if !ok {
				continue
			}
			ntrig++
			p, err := compilePlan(r, ri, slots[ri], al.Atom)
			if err != nil {
				return nil, 0, err
			}
			p.id = nplans
			nplans++
			plans[p.trigger.Pred] = append(plans[p.trigger.Pred], p)
		}
		if ntrig == 0 {
			return nil, 0, everrf(ruleName(r), "rule has no body atoms")
		}
	}
	return plans, nplans, nil
}

// compilePlan builds the delta plan of a regular rule for one trigger atom,
// or its recompute plan when trigger is nil, validating the head and
// compiling its projection.
func compilePlan(r *colog.Rule, ruleIdx int, slots *ruleSlots, trigger *colog.Atom) (*plan, error) {
	p := &plan{rule: r, ruleIdx: ruleIdx, trigger: trigger, slots: slots}
	bound := newVarSet(slots)
	var err error
	if p.steps, err = planBody(r, bound, trigger, nil); err != nil {
		return nil, everrf(ruleName(r), "%v", err)
	}
	for i, arg := range r.Head.Args {
		switch t := arg.(type) {
		case *colog.AggTerm:
			p.headAggs = append(p.headAggs, i)
			if !bound.has(t.Over) {
				return nil, everrf(ruleName(r), "aggregate variable %s unbound", t.Over)
			}
		case *colog.VarTerm:
			if !bound.has(t.Name) {
				return nil, everrf(ruleName(r), "head variable %s unbound", t.Name)
			}
		}
	}
	if len(p.headAggs) > 0 {
		return p, nil
	}
	p.headOps = make([]headOp, len(r.Head.Args))
	for i, arg := range r.Head.Args {
		p.headOps[i] = headOp{slot: -1, term: arg}
		if v, ok := arg.(*colog.VarTerm); ok {
			if p.headOps[i].slot, err = slots.slot(v.Name); err != nil {
				return nil, everrf(ruleName(r), "%v", err)
			}
		}
	}
	return p, nil
}

// compileGroundPlan builds the ground plan of solver rule ri. A constraint
// rule's head arguments compile to seeding ops that bind the head tuple
// into the frame, so its body is planned with the head variables bound.
func (p *Program) compileGroundPlan(ri int) (*groundPlan, error) {
	r := p.res.Program.Rules[ri]
	gp := &groundPlan{rule: r, label: ruleName(r), slots: p.slots[ri], constraint: p.res.Classes[ri] == analysis.SolverConstraintRule}
	bound := newVarSet(gp.slots)
	var err error
	if gp.constraint {
		if gp.seed, err = compileArgOps(r.Head, bound); err != nil {
			return nil, everrf(gp.label, "%v", err)
		}
		for i, op := range gp.seed {
			if op.kind == argExpr {
				return nil, everrf(gp.label, "unsupported head argument %s", r.Head.Args[i])
			}
		}
	}
	for _, l := range r.Body {
		if al, ok := l.(*colog.AtomLit); ok && !p.known(al.Atom.Pred) {
			return nil, everrf(gp.label, "%v", unknownPredErr(al.Atom.Pred))
		}
	}
	if gp.steps, err = planBody(r, bound, nil, func(pred string) bool { return p.symPreds[pred] }); err != nil {
		return nil, everrf(gp.label, "%v", err)
	}
	return gp, nil
}

// planBody orders a rule body and compiles each step. It is the one
// planner of the engine: delta plans (first is the trigger atom), recompute
// plans (nothing bound) and ground plans (solverPred non-nil; bound holds a
// constraint rule's seeded head variables) all come from it, planned once
// in Compile and without table statistics. The order is greedy:
//
//  1. the first ready expression in body order: a condition whose inputs
//     are bound (a filter), a definitional equality V==e or, when
//     grounding, a reified binding (V==k)==(e) whose right side is bound,
//     or an assignment whose right side is bound;
//  2. otherwise the join with the most bound columns, body position
//     breaking ties.
//
// An assignment V:=e follows body order. When an earlier literal mentions
// V, the assignment reassigns V: it waits for every such literal, and a
// later literal that reads V is an error. Otherwise it defines V, and
// becomes the check V==e when a join bound V first. bound is extended in
// place to the variables bound at the end of the body.
func planBody(r *colog.Rule, bound varSet, first *colog.Atom, solverPred func(string) bool) ([]planStep, error) {
	reassign := make([]bool, len(r.Body))
	for i, l := range r.Body {
		a, ok := l.(*colog.AssignLit)
		if !ok {
			continue
		}
		for _, prev := range r.Body[:i] {
			reassign[i] = reassign[i] || mentions(prev, a.Var)
		}
		if !reassign[i] {
			continue
		}
		for _, later := range r.Body[i+1:] {
			if mentions(later, a.Var) {
				return nil, fmt.Errorf("%s reassigns %s, which later literal %s reads", l, a.Var, later)
			}
		}
	}
	ground := solverPred != nil
	var maybe varSet // grounding: variables that may hold a symbolic value
	if ground {
		maybe = newVarSet(bound.slots)
		copy(maybe.in, bound.in)
	}
	placed := make([]bool, len(r.Body))
	waits := func(bi int, v string) bool {
		for j := range r.Body[:bi] {
			if !placed[j] && mentions(r.Body[j], v) {
				return true
			}
		}
		return false
	}
	steps := make([]planStep, 0, len(r.Body))
	todo := make([]int, 0, len(r.Body)) // unplaced body positions, in order
	for bi, l := range r.Body {
		if al, ok := l.(*colog.AtomLit); ok && al.Atom == first {
			step := planStep{kind: stepJoin, atom: first}
			if err := compileStep(&step, bound, maybe, solverPred); err != nil {
				return nil, err
			}
			steps = append(steps, step)
			placed[bi] = true
			continue
		}
		todo = append(todo, bi)
	}
	for len(todo) > 0 {
		pick := -1
		var step planStep
		for ti, bi := range todo {
			switch x := r.Body[bi].(type) {
			case *colog.CondLit:
				if condBound(x.Expr, bound) {
					pick, step = ti, planStep{kind: stepFilter, cond: x.Expr}
				} else if v, rhs, k, reified, ok := splitBindable(x.Expr, bound); ok && (ground || !reified) {
					pick, step = ti, planStep{kind: stepBind, bindVar: v, expr: rhs, k: k}
					if reified {
						step.kind = stepReify
					}
				}
			case *colog.AssignLit:
				switch {
				case !condBound(x.Expr, bound) || reassign[bi] && waits(bi, x.Var):
				case !reassign[bi] && bound.has(x.Var):
					pick, step = ti, planStep{kind: stepFilter, cond: &colog.BinTerm{Op: colog.OpEq, L: &colog.VarTerm{Name: x.Var}, R: x.Expr}}
				default:
					pick, step = ti, planStep{kind: stepAssign, bindVar: x.Var, expr: x.Expr}
				}
			}
			if pick >= 0 {
				break
			}
		}
		if pick < 0 {
			best := -1
			for ti, bi := range todo {
				if al, ok := r.Body[bi].(*colog.AtomLit); ok {
					if n := countBoundCols(al.Atom, bound); n > best {
						best, pick, step = n, ti, planStep{kind: stepJoin, atom: al.Atom}
					}
				}
			}
		}
		if pick < 0 {
			if ground {
				return nil, fmt.Errorf("cannot order body literals during grounding")
			}
			return nil, fmt.Errorf("cannot order body literals; unbound expression %s", r.Body[todo[0]])
		}
		if err := compileStep(&step, bound, maybe, solverPred); err != nil {
			return nil, err
		}
		steps = append(steps, step)
		placed[todo[pick]] = true
		todo = append(todo[:pick], todo[pick+1:]...)
	}
	return steps, nil
}

// compileStep compiles a scheduled step against the variables bound before
// it and marks the variables it binds. When grounding (solverPred non-nil)
// it also tracks which variables may hold a symbolic value: seeded head
// variables, binds from a solver-predicate join, reified bindings, and
// expressions over any of those. The pushdown compiler treats checks
// against such variables as barriers.
func compileStep(step *planStep, bound, maybe varSet, solverPred func(string) bool) error {
	slots := bound.slots
	var err error
	if step.kind != stepJoin {
		if step.kind == stepFilter {
			return nil
		}
		if step.slot, err = slots.slot(step.bindVar); err != nil {
			return err
		}
		step.rebind = bound.in[step.slot]
		bound.in[step.slot] = true
		if solverPred != nil && (step.kind == stepReify || termMaybeSym(step.expr, maybe)) {
			maybe.in[step.slot] = true
		}
		return nil
	}
	a := step.atom
	step.boundCols = joinBoundCols(a, bound)
	step.idxKey = idxName(step.boundCols)
	if step.probeOps, err = compileProbeOps(a, step.boundCols, slots); err != nil {
		return err
	}
	if step.argOps, err = compileArgOps(a, bound); err != nil {
		return err
	}
	if solverPred == nil {
		step.preCmps = compilePushdown(step.argOps, nil)
		return nil
	}
	step.preCmps = compilePushdown(step.argOps, func(slot int) bool { return maybe.in[slot] })
	if step.solver = solverPred(a.Pred); step.solver {
		// Binds from a solver predicate can carry symbolic values into the
		// frame.
		for _, op := range step.argOps {
			if op.kind == argBind {
				maybe.in[op.slot] = true
			}
		}
	}
	return nil
}

// splitBindable recognizes the binding forms of a condition over the bound
// set: a definitional equality V==expr (either side) whose other side is
// bound, and the reified form (V==k)==(expr) with an integer constant k.
func splitBindable(cond colog.Term, bound varSet) (name string, rhs colog.Term, k int64, reified, ok bool) {
	bt, isBin := cond.(*colog.BinTerm)
	if !isBin || bt.Op != colog.OpEq {
		return "", nil, 0, false, false
	}
	unbound := func(t colog.Term) (string, bool) {
		v, isVar := t.(*colog.VarTerm)
		if !isVar {
			return "", false
		}
		return v.Name, !bound.has(v.Name)
	}
	if n, u := unbound(bt.L); u && condBound(bt.R, bound) {
		return n, bt.R, 0, false, true
	}
	if n, u := unbound(bt.R); u && condBound(bt.L, bound) {
		return n, bt.L, 0, false, true
	}
	tryReified := func(side, other colog.Term) (string, colog.Term, int64, bool, bool) {
		inner, isBin := side.(*colog.BinTerm)
		if !isBin || inner.Op != colog.OpEq {
			return "", nil, 0, false, false
		}
		var vName string
		var constSide colog.Term
		if n, u := unbound(inner.L); u {
			vName, constSide = n, inner.R
		} else if n, u := unbound(inner.R); u {
			vName, constSide = n, inner.L
		} else {
			return "", nil, 0, false, false
		}
		c, isConst := constSide.(*colog.ConstTerm)
		if !isConst || c.Val.Kind != colog.KindInt {
			return "", nil, 0, false, false
		}
		if !condBound(other, bound) {
			return "", nil, 0, false, false
		}
		return vName, other, c.Val.I, true, true
	}
	if n, r, kk, re, ok2 := tryReified(bt.L, bt.R); ok2 {
		return n, r, kk, re, ok2
	}
	return tryReified(bt.R, bt.L)
}

// termVars reports whether visit holds for every variable of the term.
func termVars(t colog.Term, visit func(string) bool) bool {
	switch x := t.(type) {
	case *colog.VarTerm:
		return visit(x.Name)
	case *colog.BinTerm:
		return termVars(x.L, visit) && termVars(x.R, visit)
	case *colog.NegTerm:
		return termVars(x.X, visit)
	case *colog.NotTerm:
		return termVars(x.X, visit)
	case *colog.AbsTerm:
		return termVars(x.X, visit)
	case *colog.FuncTerm:
		for _, a := range x.Args {
			if !termVars(a, visit) {
				return false
			}
		}
	}
	return true
}

// condBound reports whether every variable of the term is bound.
func condBound(t colog.Term, bound varSet) bool { return termVars(t, bound.has) }

// termMaybeSym reports whether evaluating the term could yield a symbolic
// value: true iff any variable it mentions might be symbolic.
func termMaybeSym(t colog.Term, maybe varSet) bool {
	return !termVars(t, func(v string) bool { return !maybe.has(v) })
}

// mentions reports whether a body literal reads or binds the variable.
func mentions(l colog.Literal, name string) bool {
	other := func(v string) bool { return v != name }
	switch x := l.(type) {
	case *colog.AtomLit:
		for _, a := range x.Atom.Args {
			if at, ok := a.(*colog.AggTerm); ok && at.Over == name || !termVars(a, other) {
				return true
			}
		}
	case *colog.CondLit:
		return !termVars(x.Expr, other)
	case *colog.AssignLit:
		return x.Var == name || !termVars(x.Expr, other)
	}
	return false
}

// joinBoundCols lists the argument positions of a join atom whose value is
// known before the join executes (see boundCol).
func joinBoundCols(a *colog.Atom, bound varSet) []int {
	var cols []int
	for i := range a.Args {
		if boundCol(a, i, bound) {
			cols = append(cols, i)
		}
	}
	return cols
}

// countBoundCols is len(joinBoundCols(a, bound)) without building the list.
func countBoundCols(a *colog.Atom, bound varSet) int {
	n := 0
	for i := range a.Args {
		if boundCol(a, i, bound) {
			n++
		}
	}
	return n
}

// boundCol reports whether argument i of a join atom is known before the
// join executes: a constant, or a variable bound earlier in the plan. A
// variable repeated within the atom counts only on first occurrence (later
// occurrences are equality-checked by the join's match ops).
func boundCol(a *colog.Atom, i int, bound varSet) bool {
	switch t := a.Args[i].(type) {
	case *colog.ConstTerm:
		return true
	case *colog.VarTerm:
		if !bound.has(t.Name) {
			return false
		}
		for _, prev := range a.Args[:i] {
			if v, ok := prev.(*colog.VarTerm); ok && v.Name == t.Name {
				return false
			}
		}
		return true
	}
	return false
}

func ruleName(r *colog.Rule) string {
	if r.Label != "" {
		return r.Label
	}
	return r.Head.Pred
}
