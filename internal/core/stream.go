package core

// Streaming grounding pipeline with predicate pushdown.
//
// A join over a ground predicate consumes the table directly: either the
// persistent arrival-ordered tableIndex (shared with the delta pipeline,
// pre-sized from the table count) or the memoized snapshotStable scan, both
// captured in the run's joinSrc while runs are bound serially — so grounding
// workers then read them without synchronization. Rows flow through a
// pushdown prefilter (rowCmp) evaluated on the raw []colog.Value before any
// binding-frame extension, and only surviving rows are matched op-by-op
// (matchGroundRow), binding cells by value into the frame — no symTuple is
// allocated per row. Solver predicates stream their symbolic tuples first
// and their unshadowed materialized rows second.
//
// Emission order is part of the contract. The order rows reach a rule body
// fixes the order derivations are emitted and constraints are posted, and
// so the grounded model: incremental re-grounding splices cached rule runs
// into the same positions a fresh grounding would fill, and recovery and
// cluster replays must rebuild the same model. The pipeline preserves it:
//
//   - scans enumerate snapshotStable order, index buckets are seq-ordered
//     (see index.go), and symbolic tuples precede ground rows;
//   - the prefilter only hoists compares that appear before the first op
//     that could post a constraint (an equality check against a
//     possibly-symbolic frame slot) or raise an error (an expression
//     argument), so a row the prefilter rejects is exactly a row the full
//     match would have rejected before any side effect;
//   - matchGroundRow runs the full op list in original order afterwards,
//     so surviving rows behave identically to matchSymRow over the same
//     values.
//
// A row enumerated out of order need not change the solve outcome — a
// reordered sum often solves to the same assignments in the same number of
// search nodes — but it changes the grounded model text.
// TestStreamingGroundEquivalence compares a digest of that text, with the
// solve outcome and tables, against the reference recorded in
// testdata/ground_equiv.golden; the incremental/cluster/recovery gates pin
// the resulting derivation arrival order and solver-node traces.

import (
	"repro/internal/colog"
)

// ---------------------------------------------------------- pushdown ops

// rowCmpKind enumerates the prefilter compare forms.
type rowCmpKind int

const (
	cmpConst rowCmpKind = iota // row column vs constant
	cmpSlot                    // row column vs bound frame slot
	cmpCol                     // row column vs earlier column of the same row
)

// rowCmp is one pushed-down compare, evaluated against a raw table row
// before the binding frame is touched. For cmpSlot, slot is a frame slot;
// for cmpCol it is the earlier row column that first binds the variable.
type rowCmp struct {
	kind rowCmpKind
	col  int
	slot int
	val  colog.Value
}

// compilePushdown extracts the prefilter from a join's compiled arg ops:
// the side-effect-free compares that appear before the first op whose
// evaluation could post a constraint or raise an error. maybeSym reports
// whether a frame slot can hold a symbolic value when the join runs; a
// check against such a slot posts an equality constraint in matchSymRow /
// matchGroundRow and is therefore a barrier — it and everything after it
// stay in the full match, preserving the seed semantics that constraints
// posted before a later argument fails are kept. An expression argument is
// likewise a barrier (it errors when reached, and a hoisted later compare
// could mask that error by failing first). Pass maybeSym == nil for the
// delta pipeline, where frames are always ground and nothing posts.
func compilePushdown(ops []argOp, maybeSym func(slot int) bool) []rowCmp {
	var cmps []rowCmp
	boundAt := map[int]int{} // frame slot -> first binding column in this atom
	for i := range ops {
		op := &ops[i]
		switch op.kind {
		case argConst:
			cmps = append(cmps, rowCmp{kind: cmpConst, col: i, val: op.val})
		case argBind:
			if _, ok := boundAt[op.slot]; !ok {
				boundAt[op.slot] = i
			}
		case argCheck:
			if j, ok := boundAt[op.slot]; ok {
				// Repeated variable within the atom: both sides come from
				// this row, so the compare needs no frame at all.
				cmps = append(cmps, rowCmp{kind: cmpCol, col: i, slot: j})
				continue
			}
			if maybeSym != nil && maybeSym(op.slot) {
				return cmps // barrier: could post an equality constraint
			}
			cmps = append(cmps, rowCmp{kind: cmpSlot, col: i, slot: op.slot})
		case argExpr:
			return cmps // barrier: errors in the grounder when reached
		}
	}
	return cmps
}

// rowPrefilter evaluates the pushdown compares against a raw row under a
// ground (delta-pipeline) frame. True means the row must still go through
// the full match; false means the full match would provably reject it
// before any binding.
func (f *bindFrame) rowPrefilter(cmps []rowCmp, arity int, vals []colog.Value) bool {
	if len(vals) != arity {
		return true // let the full match report the arity mismatch
	}
	for i := range cmps {
		c := &cmps[i]
		switch c.kind {
		case cmpConst:
			if !c.val.Equal(vals[c.col]) {
				return false
			}
		case cmpSlot:
			if !f.vals[c.slot].Equal(vals[c.col]) {
				return false
			}
		case cmpCol:
			if !vals[c.slot].Equal(vals[c.col]) {
				return false
			}
		}
	}
	return true
}

// rowPrefilter is the grounder-frame variant. Slots the planner proved
// never-symbolic can still be checked defensively: a symbolic slot value
// falls through to the full match, which owns the constraint-posting
// semantics.
func (f *symFrame) rowPrefilter(cmps []rowCmp, arity int, vals []colog.Value) bool {
	if len(vals) != arity {
		return true
	}
	for i := range cmps {
		c := &cmps[i]
		switch c.kind {
		case cmpConst:
			if !c.val.Equal(vals[c.col]) {
				return false
			}
		case cmpSlot:
			gv := f.vals[c.slot]
			if gv.isSym() {
				continue
			}
			if !gv.val.Equal(vals[c.col]) {
				return false
			}
		case cmpCol:
			if !vals[c.slot].Equal(vals[c.col]) {
				return false
			}
		}
	}
	return true
}

// ---------------------------------------------------- streaming row sources

// cachedGroundRows returns a solver predicate's materialized rows that are
// not shadowed by a symbolic tuple, in snapshotStable order: the rows a
// join enumerates after the symbolic tuples. This implements the paper's
// distributed channel selection (A.3), where the assign table holds both
// the variable of the link under negotiation and the concrete assignments
// collected from neighbors. Cached until the predicate's symbolic tuples
// change (invalidatePred).
func (g *grounder) cachedGroundRows(pred string) [][]colog.Value {
	if rows, ok := g.groundRowsCache[pred]; ok {
		return rows
	}
	sts := g.sym[pred]
	tbl := g.n.tables[pred]
	var out [][]colog.Value
	if tbl != nil && tbl.size() > 0 {
		ti := g.n.prog.res.Tables[pred]
		shadow := symShadowKeys(ti, sts)
		for _, vals := range tbl.snapshotStable() {
			k, _ := symRegKey(ti, func(i int) (colog.Value, bool) { return vals[i], true })
			if shadow[k] {
				continue
			}
			out = append(out, vals)
		}
	}
	if g.groundRowsCache == nil {
		g.groundRowsCache = map[string][][]colog.Value{}
	}
	g.groundRowsCache[pred] = out
	return out
}

// provFor returns the provenance cells for one raw row of the join's
// predicate, memoized per join and grounding so repeated probes of the same
// row reuse one allocation. The key is the full-row valsKey — the key the
// incremental patcher uses, so refs recorded during grounding are found by
// patchRun.
func (st *joinSrc) provFor(pred string, vals []colog.Value) []cellProv {
	st.provKeyBuf = appendValsKey(st.provKeyBuf[:0], vals)
	if provs, ok := st.provCache[string(st.provKeyBuf)]; ok {
		return provs
	}
	key := string(st.provKeyBuf)
	provs := make([]cellProv, len(vals))
	for j := range vals {
		provs[j] = cellProv{pred: pred, key: key, col: j}
	}
	if st.provCache == nil {
		st.provCache = map[string][]cellProv{}
	}
	st.provCache[key] = provs
	return provs
}

// ------------------------------------------------------ streaming execution

// streamJoin enumerates a streamed join step: symbolic tuples (if any)
// first via the symbolic matcher, then ground rows via the prefiltered
// ground matcher — probing the persistent index when the bound prefix is
// ground, falling back to the arrival-order scan otherwise.
func (g *grounder) streamJoin(run *groundRun, idx int, sink func(*symFrame) error) error {
	f := run.frame
	step := &run.plan.steps[idx]
	src := &run.src[idx]
	if !step.solver {
		// Ground predicate: probe or scan the table directly.
		if src.gidx != nil {
			if key, ok := f.appendProbeKey(step.probeOps); ok {
				for _, r := range src.gidx.probeBytes(key) {
					if err := g.streamGroundRow(run, idx, r.vals, sink); err != nil {
						return err
					}
				}
				return nil
			}
		}
		for _, vals := range src.scan {
			if err := g.streamGroundRow(run, idx, vals, sink); err != nil {
				return err
			}
		}
		return nil
	}
	// Solver predicate: symbolic tuples first, then the unshadowed
	// materialized rows.
	for _, st := range src.symRows {
		m := f.mark()
		ok, err := g.matchSymRow(run, step.argOps, st, run.plan.label)
		if err != nil {
			return err
		}
		if ok {
			if err := g.execPlan(run, idx+1, sink); err != nil {
				return err
			}
		}
		f.undo(m)
	}
	for _, vals := range src.groundRows {
		if err := g.streamGroundRow(run, idx, vals, sink); err != nil {
			return err
		}
	}
	return nil
}

// streamGroundRow runs one raw table row through the step: pushdown
// prefilter, then the full op-by-op match, then the plan continuation.
func (g *grounder) streamGroundRow(run *groundRun, idx int, vals []colog.Value, sink func(*symFrame) error) error {
	step := &run.plan.steps[idx]
	f := run.frame
	if !f.rowPrefilter(step.preCmps, len(step.argOps), vals) {
		return nil
	}
	m := f.mark()
	ok, err := g.matchGroundRow(run, idx, vals)
	if err != nil {
		return err
	}
	if ok {
		if err := g.execPlan(run, idx+1, sink); err != nil {
			return err
		}
	}
	f.undo(m)
	return nil
}

// matchGroundRow is matchSymRow specialized to a raw table row: cells bind
// by value into the frame, and provenance is attached only when recording —
// one memoized cellProv array per row. Semantics are identical: an equality
// check whose frame side is symbolic posts an equality constraint with the
// cell lifted to a constant, and constraints posted before a later argument
// fails are kept.
func (g *grounder) matchGroundRow(run *groundRun, idx int, vals []colog.Value) (bool, error) {
	step := &run.plan.steps[idx]
	label := run.plan.label
	ops := step.argOps
	if len(ops) != len(vals) {
		return false, nil
	}
	f := run.frame
	var provs []cellProv
	if g.recording {
		provs = run.src[idx].provFor(step.atom.Pred, vals)
	}
	for i := range ops {
		op := &ops[i]
		switch op.kind {
		case argBind:
			gv := gval{val: vals[i]}
			if provs != nil {
				gv.prov = &provs[i]
			}
			f.bind(op.slot, gv)
		case argCheck:
			bound := f.vals[op.slot]
			if !bound.isSym() {
				if !bound.val.Equal(vals[i]) {
					return false, nil
				}
				continue
			}
			le, err := g.toExpr(bound, label, run.rec)
			if err != nil {
				return false, err
			}
			cell := gval{val: vals[i]}
			if provs != nil {
				cell.prov = &provs[i]
			}
			re, err := g.toExpr(cell, label, run.rec)
			if err != nil {
				return false, err
			}
			run.require(g.model.Eq(le, re))
		case argConst:
			if !op.val.Equal(vals[i]) {
				return false, nil
			}
		case argExpr:
			return false, everrf(label, "unsupported atom argument %s during grounding", op.term)
		}
	}
	return true, nil
}
