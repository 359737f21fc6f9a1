package core

import (
	"fmt"
	"sort"
	"strings"
)

// CompileCount reports how many times Compile has run in this process.
func CompileCount() int64 { return compiles.Load() }

// GroundedModelText renders the solver model cached by incremental
// grounding (Config.SolverIncremental): its constraints in posting order,
// one per line, then the objective with its sense. It is empty when no
// model is cached (before the first solve, or when the last one found no
// variables).
func GroundedModelText(n *Node) string {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.ground == nil {
		return ""
	}
	var b strings.Builder
	m := n.ground.model
	for _, c := range m.Constraints() {
		b.WriteString(c.String())
		b.WriteByte('\n')
	}
	if obj, sense := m.Objective(); obj != nil {
		b.WriteString(sense.String())
		b.WriteByte(' ')
		b.WriteString(obj.String())
		b.WriteByte('\n')
	}
	return b.String()
}

// PlanText renders every plan Compile built for the program, one line per
// plan: the delta plans in compile order, then the ground plan of every
// solver rule in program order. A step renders as its kind with the bound
// variable, the condition, or, for a join, the predicate and its bound
// columns.
func PlanText(p *Program) string {
	var b strings.Builder
	all := make([]*plan, 0, p.nplans)
	for _, ps := range p.plans {
		all = append(all, ps...)
	}
	sort.Slice(all, func(i, j int) bool { return all[i].id < all[j].id })
	for _, pl := range all {
		fmt.Fprintf(&b, "delta %s @%s:%s\n", ruleName(pl.rule), pl.trigger.Pred, stepsText(pl.steps))
	}
	for _, gp := range p.ground {
		if gp != nil {
			fmt.Fprintf(&b, "ground %s:%s\n", gp.label, stepsText(gp.steps))
		}
	}
	return b.String()
}

func stepsText(steps []planStep) string {
	var b strings.Builder
	for _, st := range steps {
		switch st.kind {
		case stepJoin:
			cols := make([]string, len(st.boundCols))
			for i, c := range st.boundCols {
				cols[i] = fmt.Sprint(c)
			}
			fmt.Fprintf(&b, " %s[%s]", st.atom.Pred, strings.Join(cols, ","))
		case stepFilter:
			fmt.Fprintf(&b, " filter(%s)", st.cond)
		case stepBind:
			fmt.Fprintf(&b, " bind(%s)", st.bindVar)
		case stepAssign:
			fmt.Fprintf(&b, " assign(%s)", st.bindVar)
		case stepReify:
			fmt.Fprintf(&b, " reify(%s)", st.bindVar)
		}
	}
	return b.String()
}
