package core

import (
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
