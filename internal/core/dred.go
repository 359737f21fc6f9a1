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
	rules []int   // indices into res.Program.Rules with head in the group
	plans []*plan // local groups: recompute plans, parallel to rules
	local bool    // false: distributed recursion, counting fallback
}

// buildRecursiveGroups finds cyclic SCCs among regular derivation rules.
// Rules joining an event table are excluded: their derivations are one-shot
// state updates that can never be re-derived (the event is gone), so they
// are not recursion in the view-maintenance sense — Follow-the-Sun's r3
// (curVm <- curVm, migVm-event) is the canonical example.
func (p *Program) buildRecursiveGroups() []*recursiveGroup {
	res := p.res
	// Dependency edges: body pred -> head pred.
	adj := map[string][]string{}
	radj := map[string][]string{}
	selfLoop := map[string]bool{}
	nodes := map[string]bool{}
	for i, r := range res.Program.Rules {
		if res.Classes[i] != analysis.RegularRule || p.ruleJoinsEvent(r) {
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
			if res.Classes[i] != analysis.RegularRule || !g.preds[r.Head.Pred] || p.ruleJoinsEvent(r) {
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

// initDred derives the recursive-group metadata of the program and
// compiles a recompute plan for every rule of a local group.
func (p *Program) initDred() error {
	p.groups = p.buildRecursiveGroups()
	p.groupOfHead = map[int]int{}
	p.feedsGroup = map[string][]int{}
	for gi, g := range p.groups {
		if !g.local {
			continue // counting fallback
		}
		for _, ri := range g.rules {
			p.groupOfHead[ri] = gi
			r := p.res.Program.Rules[ri]
			for _, l := range r.Body {
				if al, ok := l.(*colog.AtomLit); ok {
					p.feedsGroup[al.Atom.Pred] = append(p.feedsGroup[al.Atom.Pred], gi)
				}
			}
			rp, err := compilePlan(r, ri, p.slots[ri], nil)
			if err != nil {
				return err
			}
			rp.id = p.nplans
			p.nplans++
			g.plans = append(g.plans, rp)
		}
	}
	return nil
}

// markDirtyFor flags the groups affected by a deletion of pred.
func (n *Node) markDirtyFor(pred string) bool {
	gids := n.prog.feedsGroup[pred]
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
	g := n.prog.groups[gi]
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
	// Naive fixpoint: each rule's recompute plan reads the group's
	// predicates from the working rows.
	rc := &recompute{work: work}
	for changed := true; changed; {
		changed = false
		for _, p := range g.plans {
			rc.out = rc.out[:0]
			if err := n.runRecompute(p, rc); err != nil {
				return err
			}
			head := work[p.rule.Head.Pred]
			for _, vals := range rc.out {
				k := valsKey(vals)
				if _, ok := head[k]; !ok {
					head[k] = vals
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

// recompute is the row source and sink of a recompute plan run: joins over
// the group's predicates scan the working rows instead of the tables, and
// derived head tuples are collected instead of routed.
type recompute struct {
	work map[string]map[string][]colog.Value // pred -> key -> vals
	out  [][]colog.Value
}

// rows returns the working rows of a group predicate; ok is false outside
// a recompute and for predicates the group does not own.
func (rc *recompute) rows(pred string) (map[string][]colog.Value, bool) {
	if rc == nil {
		return nil, false
	}
	rows, ok := rc.work[pred]
	return rows, ok
}

// runRecompute evaluates a recompute plan through the delta executor.
func (n *Node) runRecompute(p *plan, rc *recompute) error {
	run := n.planRun(p)
	run.frame.reset()
	run.rc = rc
	err := n.execSteps(p, run, 0, delta{sign: +1})
	run.rc = nil
	return err
}
