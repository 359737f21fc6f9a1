package core

import (
	"sort"

	"repro/internal/analysis"
	"repro/internal/colog"
	"repro/internal/store"
)

// Counting-based incremental view maintenance is exact for non-recursive
// rules but over-retains tuples whose derivations support each other
// through a cycle (delete an edge of a two-node loop and the reach tuples
// keep each other alive). The classic fix is DRed (delete-and-rederive);
// this engine uses an equivalent, simpler strategy sized to Cologne
// workloads: deletions that can affect a recursive predicate group mark the
// group dirty, and after the delta queue drains each dirty group is
// recomputed from its base facts by naive fixpoint evaluation, with the
// visible difference propagated downstream.
//
// Recursive groups whose rules ship tuples across nodes keep plain counting
// (a distributed recompute would need global coordination); this matches
// declarative networking practice, where recursion with distributed
// deletion is handled by soft state rather than exact maintenance.

// recursiveGroup is one strongly connected component of the predicate
// dependency graph that contains a cycle.
type recursiveGroup struct {
	preds map[string]bool
	rules []int // indices into res.Program.Rules with head in the group
	local bool  // false: distributed recursion, counting fallback
}

// buildRecursiveGroups finds cyclic SCCs among regular derivation rules.
// Rules joining an event table are excluded: their derivations are one-shot
// state updates that can never be re-derived (the event is gone), so they
// are not recursion in the view-maintenance sense — Follow-the-Sun's r3
// (curVm <- curVm, migVm-event) is the canonical example.
func (n *Node) buildRecursiveGroups(res *analysis.Result) []*recursiveGroup {
	// Dependency edges: body pred -> head pred.
	adj := map[string][]string{}
	radj := map[string][]string{}
	selfLoop := map[string]bool{}
	nodes := map[string]bool{}
	for i, r := range res.Program.Rules {
		if res.Classes[i] != analysis.RegularRule || n.ruleJoinsEvent(r) {
			continue
		}
		head := r.Head.Pred
		nodes[head] = true
		for _, l := range r.Body {
			al, ok := l.(*colog.AtomLit)
			if !ok {
				continue
			}
			b := al.Atom.Pred
			nodes[b] = true
			adj[b] = append(adj[b], head)
			radj[head] = append(radj[head], b)
			if b == head {
				selfLoop[head] = true
			}
		}
	}
	// Kosaraju SCC.
	var order []string
	seen := map[string]bool{}
	var dfs1 func(u string)
	dfs1 = func(u string) {
		seen[u] = true
		for _, v := range adj[u] {
			if !seen[v] {
				dfs1(v)
			}
		}
		order = append(order, u)
	}
	for u := range nodes {
		if !seen[u] {
			dfs1(u)
		}
	}
	comp := map[string]int{}
	var members [][]string
	var dfs2 func(u string, c int)
	dfs2 = func(u string, c int) {
		comp[u] = c
		members[c] = append(members[c], u)
		for _, v := range radj[u] {
			if _, done := comp[v]; !done {
				dfs2(v, c)
			}
		}
	}
	for i := len(order) - 1; i >= 0; i-- {
		u := order[i]
		if _, done := comp[u]; !done {
			members = append(members, nil)
			dfs2(u, len(members)-1)
		}
	}

	var groups []*recursiveGroup
	for _, ms := range members {
		if len(ms) == 1 && !selfLoop[ms[0]] {
			continue
		}
		g := &recursiveGroup{preds: map[string]bool{}, local: true}
		for _, p := range ms {
			g.preds[p] = true
		}
		for i, r := range res.Program.Rules {
			if res.Classes[i] != analysis.RegularRule || !g.preds[r.Head.Pred] || n.ruleJoinsEvent(r) {
				continue
			}
			g.rules = append(g.rules, i)
			if !ruleSingleSite(r) {
				g.local = false
			}
		}
		groups = append(groups, g)
	}
	return groups
}

// ruleSingleSite reports whether every location variable in the rule is the
// same (or absent), i.e. evaluation never crosses nodes.
func ruleSingleSite(r *colog.Rule) bool {
	locs := map[string]bool{}
	note := func(a *colog.Atom) {
		if v := a.LocVar(); v != "" {
			locs[v] = true
		}
	}
	note(r.Head)
	for _, l := range r.Body {
		if al, ok := l.(*colog.AtomLit); ok {
			note(al.Atom)
		}
	}
	return len(locs) <= 1
}

// ruleJoinsEvent reports whether any body atom of r is an event table.
func (n *Node) ruleJoinsEvent(r *colog.Rule) bool {
	for _, l := range r.Body {
		if al, ok := l.(*colog.AtomLit); ok {
			if t := n.tables[al.Atom.Pred]; t != nil && t.event {
				return true
			}
		}
	}
	return false
}

// initDred wires the recursive-group metadata into the node.
func (n *Node) initDred() {
	n.groups = n.buildRecursiveGroups(n.res)
	n.groupOfHead = map[int]int{}
	n.feedsGroup = map[string][]int{}
	for gi, g := range n.groups {
		if !g.local {
			continue // counting fallback
		}
		for _, ri := range g.rules {
			n.groupOfHead[ri] = gi
			for _, l := range n.res.Program.Rules[ri].Body {
				if al, ok := l.(*colog.AtomLit); ok {
					n.feedsGroup[al.Atom.Pred] = append(n.feedsGroup[al.Atom.Pred], gi)
				}
			}
		}
	}
}

// markDirtyFor flags the groups affected by a deletion of pred.
func (n *Node) markDirtyFor(pred string) bool {
	gids := n.feedsGroup[pred]
	for _, gi := range gids {
		n.dirtyGroups[gi] = true
	}
	return len(gids) > 0
}

// recomputeGroup rebuilds the group's predicates from their base facts
// (externally inserted or network-delivered rows) by naive fixpoint
// evaluation over the group's rules, then installs the result and
// propagates the visible difference downstream.
func (n *Node) recomputeGroup(gi int) error {
	g := n.groups[gi]
	// Working state: base rows only.
	work := map[string]map[string][]colog.Value{} // pred -> key -> vals
	for p := range g.preds {
		work[p] = map[string][]colog.Value{}
		t := n.tables[p]
		if t == nil {
			continue
		}
		for _, r := range t.rows {
			if r.Base > 0 {
				work[p][valsKey(r.Vals)] = r.Vals
			}
		}
	}
	rowsOf := func(pred string) [][]colog.Value {
		if m, in := work[pred]; in {
			out := make([][]colog.Value, 0, len(m))
			for _, v := range m {
				out = append(out, v)
			}
			return out
		}
		if t := n.tables[pred]; t != nil {
			return t.snapshotUnordered()
		}
		return nil
	}
	// Naive fixpoint.
	for changed := true; changed; {
		changed = false
		for _, ri := range g.rules {
			rule := n.res.Program.Rules[ri]
			derived, err := n.evalRuleGround(rule, rowsOf)
			if err != nil {
				return err
			}
			for _, vals := range derived {
				k := valsKey(vals)
				if _, ok := work[rule.Head.Pred][k]; !ok {
					work[rule.Head.Pred][k] = vals
					changed = true
				}
			}
		}
	}
	// Install and diff.
	for p := range g.preds {
		t := n.tables[p]
		if t == nil {
			continue
		}
		oldRows := map[string][]colog.Value{}
		baseOf := map[string]int{}
		seqOf := map[string]uint64{}
		for _, r := range t.rows {
			k := valsKey(r.Vals)
			oldRows[k] = r.Vals
			baseOf[k] = r.Base
			seqOf[k] = r.Seq
		}
		newRows := work[p]
		// Fresh rows get arrival numbers in deterministic (sorted-key) order;
		// surviving rows keep theirs.
		var freshKeys []string
		for k := range newRows {
			if _, had := seqOf[k]; !had {
				freshKeys = append(freshKeys, k)
			}
		}
		sort.Strings(freshKeys)
		for _, k := range freshKeys {
			seqOf[k] = t.nextSeq
			t.nextSeq++
		}
		t.rows = make(map[string]store.Row, len(newRows))
		t.dropIndexes()
		t.dropScanCache()
		for k, vals := range newRows {
			t.rows[keyOf(vals, t.keyCols)] = store.Row{
				Vals:  vals,
				Count: 1,
				Base:  baseOf[k],
				Seq:   seqOf[k],
			}
		}
		for k, vals := range oldRows {
			if _, kept := newRows[k]; !kept {
				t.rememberSeq(keyOf(vals, t.keyCols), seqOf[k])
				if err := n.processTransition(delta{Tuple{p, vals}, -1, true}, gi); err != nil {
					return err
				}
			}
		}
		for k, vals := range newRows {
			if _, had := oldRows[k]; !had {
				if err := n.processTransition(delta{Tuple{p, vals}, +1, true}, gi); err != nil {
					return err
				}
			}
		}
	}
	return nil
}

// evalRuleGround enumerates all ground derivations of a regular rule over
// the provided row source, returning the head tuples (used by the
// recompute fixpoint; no aggregates — analysis rejects recursion through
// aggregates).
func (n *Node) evalRuleGround(rule *colog.Rule, rowsOf func(string) [][]colog.Value) ([][]colog.Value, error) {
	var out [][]colog.Value
	label := ruleName(rule)
	type item struct {
		lit  colog.Literal
		done bool
	}
	lits := make([]item, len(rule.Body))
	for i, l := range rule.Body {
		lits[i] = item{lit: l}
	}
	var rec func(env map[string]colog.Value, left int) error
	rec = func(env map[string]colog.Value, left int) error {
		if left == 0 {
			vals := make([]colog.Value, len(rule.Head.Args))
			for i, arg := range rule.Head.Args {
				v, err := evalGround(arg, mapEnv(env))
				if err != nil {
					return everrf(label, "head arg %d: %v", i, err)
				}
				vals[i] = v
			}
			out = append(out, vals)
			return nil
		}
		// Ready expressions first, then any atom.
		pick := -1
		for i := range lits {
			if lits[i].done {
				continue
			}
			switch x := lits[i].lit.(type) {
			case *colog.CondLit:
				if _, _, ok := bindableEq(x.Expr, boundSet(env)); ok || termBound(x.Expr, mapEnv(env)) {
					pick = i
				}
			case *colog.AssignLit:
				if termBound(x.Expr, mapEnv(env)) {
					pick = i
				}
			}
			if pick >= 0 {
				break
			}
		}
		if pick < 0 {
			for i := range lits {
				if !lits[i].done {
					if _, ok := lits[i].lit.(*colog.AtomLit); ok {
						pick = i
						break
					}
				}
			}
		}
		if pick < 0 {
			return everrf(label, "cannot order literals during recompute")
		}
		lits[pick].done = true
		defer func() { lits[pick].done = false }()
		switch x := lits[pick].lit.(type) {
		case *colog.AtomLit:
			for _, rowVals := range rowsOf(x.Atom.Pred) {
				env2 := cloneEnv(env)
				if matchAtom(x.Atom, rowVals, env2) {
					if err := rec(env2, left-1); err != nil {
						return err
					}
				}
			}
			return nil
		case *colog.CondLit:
			if name, expr, ok := bindableEq(x.Expr, boundSet(env)); ok {
				v, err := evalGround(expr, mapEnv(env))
				if err != nil {
					return everrf(label, "%v", err)
				}
				env2 := cloneEnv(env)
				env2[name] = v
				return rec(env2, left-1)
			}
			v, err := evalGround(x.Expr, mapEnv(env))
			if err != nil {
				return everrf(label, "%v", err)
			}
			if v.Kind != colog.KindBool {
				return everrf(label, "condition %s non-boolean", x.Expr)
			}
			if !v.B {
				return nil
			}
			return rec(env, left-1)
		case *colog.AssignLit:
			v, err := evalGround(x.Expr, mapEnv(env))
			if err != nil {
				return everrf(label, "%v", err)
			}
			env2 := cloneEnv(env)
			env2[x.Var] = v
			return rec(env2, left-1)
		}
		return everrf(label, "unknown literal")
	}
	if err := rec(map[string]colog.Value{}, len(lits)); err != nil {
		return nil, err
	}
	return out, nil
}

func boundSet(env map[string]colog.Value) map[string]bool {
	out := make(map[string]bool, len(env))
	for k := range env {
		out[k] = true
	}
	return out
}
