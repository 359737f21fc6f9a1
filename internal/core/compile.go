package core

import (
	"fmt"

	"repro/internal/analysis"
	"repro/internal/colog"
)

// stepKind enumerates the operators of a compiled rule plan.
type stepKind int

const (
	stepJoin   stepKind = iota // join a body atom against its table
	stepFilter                 // evaluate a boolean condition
	stepBind                   // definitional equality Var == expr
	stepAssign                 // Var := expr
)

// planStep is one operator in a delta rule plan.
type planStep struct {
	kind      stepKind
	atom      *colog.Atom // stepJoin
	cond      colog.Term  // stepFilter
	bindVar   string      // stepBind / stepAssign
	expr      colog.Term  // stepBind / stepAssign rhs
	isTrigger bool        // stepJoin for the delta position (bound from the delta tuple)
	// boundCols are the join atom's argument positions already bound when
	// this step runs (constants or previously bound variables); non-empty
	// sets drive an index probe instead of a table scan.
	boundCols []int
	// argOps are the compiled unification ops for a join atom; probeOps
	// build the index probe key from the frame (parallel to boundCols);
	// preCmps is the pushed-down prefilter evaluated on raw rows before the
	// frame is extended (see stream.go — delta frames are always ground, so
	// every compare is hoistable).
	argOps   []argOp
	probeOps []probeOp
	preCmps  []rowCmp
	// idxKey names the probed column set. The index pointer itself is
	// memoized per node (planRun), since every node has its own tables.
	idxKey string
	// slot is the frame slot written by stepBind / stepAssign; rebind marks
	// an assignment whose target is already bound at this point in the plan
	// (executed by saving and restoring the previous value, since the undo
	// trail only tracks fresh bindings).
	slot   int
	rebind bool
}

// headOp projects one plain-head argument from the frame: a direct slot
// copy for variables, a term evaluation otherwise.
type headOp struct {
	slot int // -1: evaluate term
	term colog.Term
}

// plan is a compiled delta rule: when a tuple of the trigger predicate
// changes, the remaining steps run in order, producing head tuples. This is
// the dataflow of pipelined semi-naive evaluation — one plan per (rule, body
// atom) pair. Plans belong to a Program and are shared read-only by every
// node built from it; a node's mutable state for a plan (binding frame,
// index memo) lives in its planRun, found by id.
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
		var atoms []*colog.Atom
		for _, l := range r.Body {
			if al, ok := l.(*colog.AtomLit); ok {
				atoms = append(atoms, al.Atom)
			}
		}
		if len(atoms) == 0 {
			return nil, 0, everrf(ruleName(r), "rule has no body atoms")
		}
		for ti := range atoms {
			p, err := compilePlan(r, ri, slots[ri], atoms, ti)
			if err != nil {
				return nil, 0, everrf(ruleName(r), "%v", err)
			}
			p.id = nplans
			nplans++
			plans[p.trigger.Pred] = append(plans[p.trigger.Pred], p)
		}
	}
	return plans, nplans, nil
}

// compilePlan orders the rule body for one trigger position: the trigger
// atom binds first, then remaining literals are scheduled greedily —
// joins preferring atoms sharing bound variables, conditions and
// assignments as soon as their inputs are bound, definitional equalities
// when exactly one side is a single unbound variable.
func compilePlan(r *colog.Rule, ruleIdx int, slots *ruleSlots, atoms []*colog.Atom, triggerIdx int) (*plan, error) {
	p := &plan{rule: r, ruleIdx: ruleIdx, trigger: atoms[triggerIdx], slots: slots}
	bound := newVarSet(slots)
	bindAtomVars := func(a *colog.Atom) error {
		for _, v := range atomVarNames(a) {
			if err := bound.add(v); err != nil {
				return err
			}
		}
		return nil
	}
	trigger := planStep{kind: stepJoin, atom: atoms[triggerIdx], isTrigger: true}
	var err error
	if trigger.argOps, err = compileArgOps(atoms[triggerIdx], bound); err != nil {
		return nil, err
	}
	p.steps = append(p.steps, trigger)
	if err := bindAtomVars(atoms[triggerIdx]); err != nil {
		return nil, err
	}

	type pending struct {
		lit  colog.Literal
		atom *colog.Atom // non-nil when the literal is an atom
	}
	var todo []pending
	for _, l := range r.Body {
		if al, ok := l.(*colog.AtomLit); ok {
			if al.Atom == atoms[triggerIdx] {
				continue
			}
			todo = append(todo, pending{l, al.Atom})
		} else {
			todo = append(todo, pending{l, nil})
		}
	}

	countBound := func(a *colog.Atom) int {
		n := 0
		for _, v := range atomVarNames(a) {
			if bound.has(v) {
				n++
			}
		}
		return n
	}

	for len(todo) > 0 {
		picked := -1
		var step planStep
		// 1. Ready conditions and assignments take priority (cheap filters).
		for i, pd := range todo {
			switch x := pd.lit.(type) {
			case *colog.CondLit:
				if cv, expr, ok := bindableEq(x.Expr, bound); ok {
					picked, step = i, planStep{kind: stepBind, bindVar: cv, expr: expr}
				} else if condBound(x.Expr, bound) {
					picked, step = i, planStep{kind: stepFilter, cond: x.Expr}
				}
			case *colog.AssignLit:
				if condBound(x.Expr, bound) {
					picked, step = i, planStep{kind: stepAssign, bindVar: x.Var, expr: x.Expr, rebind: bound.has(x.Var)}
				}
			}
			if picked >= 0 {
				break
			}
		}
		// 2. Otherwise the most-bound join.
		if picked < 0 {
			best := -1
			for i, pd := range todo {
				if pd.atom == nil {
					continue
				}
				if n := countBound(pd.atom); n > best {
					best = n
					picked = i
					step = planStep{kind: stepJoin, atom: pd.atom}
				}
			}
		}
		if picked < 0 {
			return nil, fmt.Errorf("cannot order body literals; unbound expression %s", todo[0].lit)
		}
		switch step.kind {
		case stepJoin:
			step.boundCols = joinBoundCols(step.atom, bound)
			if step.probeOps, err = compileProbeOps(step.atom, step.boundCols, slots); err != nil {
				return nil, err
			}
			step.idxKey = idxName(step.boundCols)
			if step.argOps, err = compileArgOps(step.atom, bound); err != nil {
				return nil, err
			}
			step.preCmps = compilePushdown(step.argOps, nil)
			if err := bindAtomVars(step.atom); err != nil {
				return nil, err
			}
		case stepBind, stepAssign:
			if step.slot, err = slots.slot(step.bindVar); err != nil {
				return nil, err
			}
			bound.in[step.slot] = true
		}
		p.steps = append(p.steps, step)
		todo = append(todo[:picked], todo[picked+1:]...)
	}

	// Validate head and note aggregate positions, compiling the plain-head
	// projection.
	for i, arg := range r.Head.Args {
		switch t := arg.(type) {
		case *colog.AggTerm:
			p.headAggs = append(p.headAggs, i)
			if !bound.has(t.Over) {
				return nil, fmt.Errorf("aggregate variable %s unbound", t.Over)
			}
		case *colog.VarTerm:
			if !bound.has(t.Name) {
				return nil, fmt.Errorf("head variable %s unbound", t.Name)
			}
		}
	}
	if len(p.headAggs) == 0 {
		p.headOps = make([]headOp, len(r.Head.Args))
		for i, arg := range r.Head.Args {
			if v, ok := arg.(*colog.VarTerm); ok {
				slot, err := slots.slot(v.Name)
				if err != nil {
					return nil, err
				}
				p.headOps[i] = headOp{slot: slot}
			} else {
				p.headOps[i] = headOp{slot: -1, term: arg}
			}
		}
	}
	return p, nil
}

// bindableEq recognizes a definitional equality: one side a single unbound
// variable, the other fully bound.
func bindableEq(t colog.Term, bound varSet) (string, colog.Term, bool) {
	bt, ok := t.(*colog.BinTerm)
	if !ok || bt.Op != colog.OpEq {
		return "", nil, false
	}
	if v, ok := bt.L.(*colog.VarTerm); ok && !bound.has(v.Name) && condBound(bt.R, bound) {
		return v.Name, bt.R, true
	}
	if v, ok := bt.R.(*colog.VarTerm); ok && !bound.has(v.Name) && condBound(bt.L, bound) {
		return v.Name, bt.L, true
	}
	return "", nil, false
}

// condBound reports whether every variable of the term is bound.
func condBound(t colog.Term, bound varSet) bool {
	switch x := t.(type) {
	case *colog.VarTerm:
		return bound.has(x.Name)
	case *colog.BinTerm:
		return condBound(x.L, bound) && condBound(x.R, bound)
	case *colog.NegTerm:
		return condBound(x.X, bound)
	case *colog.NotTerm:
		return condBound(x.X, bound)
	case *colog.AbsTerm:
		return condBound(x.X, bound)
	case *colog.FuncTerm:
		for _, a := range x.Args {
			if !condBound(a, bound) {
				return false
			}
		}
		return true
	default:
		return true
	}
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
// occurrences are equality-checked by matchAtom).
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

func atomVarNames(a *colog.Atom) []string {
	var out []string
	for _, t := range a.Args {
		switch x := t.(type) {
		case *colog.VarTerm:
			out = append(out, x.Name)
		case *colog.AggTerm:
			out = append(out, x.Over)
		}
	}
	return out
}

func ruleName(r *colog.Rule) string {
	if r.Label != "" {
		return r.Label
	}
	return r.Head.Pred
}
