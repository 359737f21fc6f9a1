package core

import (
	"fmt"
	"sort"

	"repro/internal/colog"
)

// This file holds the shared join machinery introduced by the indexed
// grounding pipeline: per-rule variable slotting, slice-backed binding
// frames with undo trails (replacing the map-clone-per-row discipline in
// both the delta-plan path and the grounder), compiled per-atom match ops,
// probe-key builders and the grounder's solver rule levels. The planner
// that orders rule bodies is planBody (compile.go).

// ---------------------------------------------------------------- slotting

// ruleSlots assigns every variable name of one rule a dense integer slot,
// so binding environments can be slices instead of maps. A layout is built
// once by collectRuleSlots and is read-only afterwards: a Program shares it
// between every node's delta plans and grounder.
type ruleSlots struct {
	names []string
	idx   map[string]int
}

func newRuleSlots() *ruleSlots {
	return &ruleSlots{idx: map[string]int{}}
}

// add returns the slot for a name, allocating one on first use. Only the
// layout builder calls it; compiled code resolves names with slot.
func (s *ruleSlots) add(name string) int {
	if i, ok := s.idx[name]; ok {
		return i
	}
	i := len(s.names)
	s.names = append(s.names, name)
	s.idx[name] = i
	return i
}

// lookup returns the slot for a name without allocating.
func (s *ruleSlots) lookup(name string) (int, bool) {
	i, ok := s.idx[name]
	return i, ok
}

// slot resolves a name the layout must hold; a miss is an error.
func (s *ruleSlots) slot(name string) (int, error) {
	if i, ok := s.idx[name]; ok {
		return i, nil
	}
	return 0, fmt.Errorf("variable %s has no slot in the rule layout", name)
}

func (s *ruleSlots) size() int { return len(s.names) }

// collectTermVars registers the variables of a term.
func (s *ruleSlots) collectTermVars(t colog.Term) {
	termVars(t, func(v string) bool { s.add(v); return true })
}

// collectRuleSlots slots every variable of a rule in deterministic
// (body-then-head, left-to-right) order.
func collectRuleSlots(r *colog.Rule) *ruleSlots {
	s := newRuleSlots()
	for _, l := range r.Body {
		switch x := l.(type) {
		case *colog.AtomLit:
			for _, a := range x.Atom.Args {
				if at, ok := a.(*colog.AggTerm); ok {
					s.add(at.Over)
					continue
				}
				s.collectTermVars(a)
			}
		case *colog.CondLit:
			s.collectTermVars(x.Expr)
		case *colog.AssignLit:
			s.add(x.Var)
			s.collectTermVars(x.Expr)
		}
	}
	for _, a := range r.Head.Args {
		if at, ok := a.(*colog.AggTerm); ok {
			s.add(at.Over)
			continue
		}
		s.collectTermVars(a)
	}
	return s
}

// varSet is a set of one rule's variables held as a slot-indexed bitmap:
// the planner's record of which variables are bound (or may be symbolic)
// at a point of the plan.
type varSet struct {
	slots *ruleSlots
	in    []bool
}

func newVarSet(slots *ruleSlots) varSet {
	return varSet{slots: slots, in: make([]bool, slots.size())}
}

func (s varSet) has(name string) bool {
	i, ok := s.slots.lookup(name)
	return ok && s.in[i]
}

// ------------------------------------------------------------ ground frame

// valueEnv abstracts a ground binding environment for term evaluation, so
// evalGround works over both map environments (cold paths: recursive-group
// recompute, var instantiation) and slot frames (hot delta-plan path).
type valueEnv interface {
	lookupVar(name string) (colog.Value, bool)
}

// mapEnv adapts a plain map to valueEnv.
type mapEnv map[string]colog.Value

func (e mapEnv) lookupVar(name string) (colog.Value, bool) {
	v, ok := e[name]
	return v, ok
}

// bindFrame is a slice-backed ground binding environment with an undo
// trail: bindings are registered on the trail and popped on backtrack, so
// join enumeration allocates nothing per candidate row.
type bindFrame struct {
	slots  *ruleSlots
	vals   []colog.Value
	bound  []bool
	trail  []int
	keyBuf []byte
}

func newBindFrame(slots *ruleSlots) *bindFrame {
	return &bindFrame{
		slots: slots,
		vals:  make([]colog.Value, slots.size()),
		bound: make([]bool, slots.size()),
	}
}

func (f *bindFrame) reset() {
	for i := range f.bound {
		f.bound[i] = false
	}
	f.trail = f.trail[:0]
}

func (f *bindFrame) mark() int { return len(f.trail) }

func (f *bindFrame) undo(mark int) {
	for len(f.trail) > mark {
		s := f.trail[len(f.trail)-1]
		f.trail = f.trail[:len(f.trail)-1]
		f.bound[s] = false
	}
}

func (f *bindFrame) bind(slot int, v colog.Value) {
	f.vals[slot] = v
	f.bound[slot] = true
	f.trail = append(f.trail, slot)
}

func (f *bindFrame) lookupVar(name string) (colog.Value, bool) {
	if i, ok := f.slots.lookup(name); ok && f.bound[i] {
		return f.vals[i], true
	}
	return colog.Value{}, false
}

// ------------------------------------------------------- compiled atom ops

// argOpKind enumerates compiled unification operations for one atom
// argument. Because plan step order is fixed at compile time, whether a
// variable is bound when the atom executes is statically known, so each
// argument compiles to exactly one op.
type argOpKind int

const (
	argConst argOpKind = iota // compare against a constant
	argBind                   // first occurrence: bind the slot
	argCheck                  // bound variable: compare against the slot
	argExpr                   // expression argument: evaluate and compare
)

type argOp struct {
	kind argOpKind
	slot int
	val  colog.Value
	term colog.Term
}

// compileArgOps compiles an atom's arguments against the statically-bound
// variable set. Variables in bound (and repeats within the atom) become
// checks; new variables become binds and are added to bound.
func compileArgOps(a *colog.Atom, bound varSet) ([]argOp, error) {
	ops := make([]argOp, len(a.Args))
	for i, arg := range a.Args {
		switch t := arg.(type) {
		case *colog.VarTerm:
			slot, err := bound.slots.slot(t.Name)
			if err != nil {
				return nil, err
			}
			if bound.in[slot] {
				ops[i] = argOp{kind: argCheck, slot: slot}
			} else {
				ops[i] = argOp{kind: argBind, slot: slot}
				bound.in[slot] = true
			}
		case *colog.ConstTerm:
			ops[i] = argOp{kind: argConst, val: t.Val}
		default:
			ops[i] = argOp{kind: argExpr, term: arg}
		}
	}
	return ops, nil
}

// matchRow unifies a ground row against compiled arg ops, extending the
// frame. Bindings are trailed; the caller undoes to its mark on mismatch or
// after exploring the row.
func matchRow(ops []argOp, vals []colog.Value, f *bindFrame) bool {
	if len(ops) != len(vals) {
		return false
	}
	for i := range ops {
		op := &ops[i]
		switch op.kind {
		case argConst:
			if !op.val.Equal(vals[i]) {
				return false
			}
		case argBind:
			f.bind(op.slot, vals[i])
		case argCheck:
			if !f.vals[op.slot].Equal(vals[i]) {
				return false
			}
		case argExpr:
			if !termBound(op.term, f) {
				return false
			}
			v, err := evalGround(op.term, f)
			if err != nil || !v.Equal(vals[i]) {
				return false
			}
		}
	}
	return true
}

// ---------------------------------------------------------------- probing

// probeOp contributes one column to an index probe key: either a constant
// or a frame slot bound before the join executes.
type probeOp struct {
	slot int // -1: constant
	val  colog.Value
}

// compileProbeOps builds the probe plan for an atom's bound columns.
func compileProbeOps(a *colog.Atom, boundCols []int, slots *ruleSlots) ([]probeOp, error) {
	ops := make([]probeOp, len(boundCols))
	for i, c := range boundCols {
		switch t := a.Args[c].(type) {
		case *colog.ConstTerm:
			ops[i] = probeOp{slot: -1, val: t.Val}
		case *colog.VarTerm:
			slot, err := slots.slot(t.Name)
			if err != nil {
				return nil, err
			}
			ops[i] = probeOp{slot: slot}
		}
	}
	return ops, nil
}

// appendProbeKey builds the probe key into the frame's scratch buffer; the
// caller must consume the bytes before the next use of the buffer.
func (f *bindFrame) appendProbeKey(ops []probeOp) []byte {
	dst := f.keyBuf[:0]
	for i := range ops {
		if i > 0 {
			dst = append(dst, '|')
		}
		v := ops[i].val
		if ops[i].slot >= 0 {
			v = f.vals[ops[i].slot]
		}
		dst = v.AppendKey(dst)
	}
	f.keyBuf = dst
	return dst
}

// probeBytes looks up a bucket by a key held in a byte slice without
// allocating the string (the compiler elides the conversion). The bucket
// is seq-ordered: enumerating it yields the matching rows in snapshotStable
// order (see tableIndex).
func (ix *tableIndex) probeBytes(key []byte) []idxRow {
	return ix.m[string(key)]
}

// ------------------------------------------------------------- sym frame

// symFrame is the grounder's slice-backed binding environment: gvals with
// an undo trail, replacing the senv map clones. rec, when non-nil, is the
// owning run's provenance recorder (incremental grounding).
type symFrame struct {
	slots  *ruleSlots
	vals   []gval
	bound  []bool
	trail  []int
	keyBuf []byte
	rec    *runRecorder
}

func newSymFrame(slots *ruleSlots) *symFrame {
	return &symFrame{
		slots: slots,
		vals:  make([]gval, slots.size()),
		bound: make([]bool, slots.size()),
	}
}

func (f *symFrame) reset() {
	for i := range f.bound {
		f.bound[i] = false
	}
	f.trail = f.trail[:0]
}

func (f *symFrame) mark() int { return len(f.trail) }

func (f *symFrame) undo(mark int) {
	for len(f.trail) > mark {
		s := f.trail[len(f.trail)-1]
		f.trail = f.trail[:len(f.trail)-1]
		f.bound[s] = false
	}
}

func (f *symFrame) bind(slot int, v gval) {
	f.vals[slot] = v
	f.bound[slot] = true
	f.trail = append(f.trail, slot)
}

func (f *symFrame) lookupVar(name string) (gval, bool) {
	if i, ok := f.slots.lookup(name); ok && f.bound[i] {
		return f.vals[i], true
	}
	return gval{}, false
}

// appendProbeKey builds a probe key from ground frame values; ok is false
// when any probed slot currently holds a symbolic value (the probe cannot
// prune, so the caller falls back to a scan).
func (f *symFrame) appendProbeKey(ops []probeOp) ([]byte, bool) {
	dst := f.keyBuf[:0]
	for i := range ops {
		if i > 0 {
			dst = append(dst, '|')
		}
		v := ops[i].val
		if ops[i].slot >= 0 {
			gv := f.vals[ops[i].slot]
			if gv.isSym() {
				return nil, false
			}
			v = gv.val
		}
		dst = v.AppendKey(dst)
	}
	f.keyBuf = dst
	return dst, true
}

// ------------------------------------------------------- rule level graph

// solverRuleLevels partitions the solver derivation rules into dependency
// levels: a rule's level is one past the deepest level producing a
// predicate its body reads. Rules within a level are independent; levels
// run in order. Falls back to one rule per level if the dependency graph
// does not stabilize.
func solverRuleLevels(rules []*colog.Rule, order []int) [][]int {
	producers := map[string][]int{}
	for _, ri := range order {
		head := rules[ri].Head.Pred
		producers[head] = append(producers[head], ri)
	}
	level := map[int]int{}
	stable := false
	for iter := 0; iter <= len(order)+1; iter++ {
		changed := false
		for _, ri := range order {
			lvl := 0
			for _, l := range rules[ri].Body {
				al, ok := l.(*colog.AtomLit)
				if !ok {
					continue
				}
				for _, rj := range producers[al.Atom.Pred] {
					if rj == ri {
						continue
					}
					if pl := level[rj] + 1; pl > lvl {
						lvl = pl
					}
				}
			}
			if level[ri] != lvl {
				level[ri] = lvl
				changed = true
			}
		}
		if !changed {
			stable = true
			break
		}
	}
	if !stable {
		// Cyclic dependency (should be rejected upstream): serialize.
		out := make([][]int, 0, len(order))
		for _, ri := range order {
			out = append(out, []int{ri})
		}
		return out
	}
	byLevel := map[int][]int{}
	var lvls []int
	for _, ri := range order {
		l := level[ri]
		if _, ok := byLevel[l]; !ok {
			lvls = append(lvls, l)
		}
		byLevel[l] = append(byLevel[l], ri)
	}
	sort.Ints(lvls)
	out := make([][]int, 0, len(lvls))
	for _, l := range lvls {
		out = append(out, byLevel[l])
	}
	return out
}
