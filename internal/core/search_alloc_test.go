package core_test

import (
	"runtime"
	"testing"

	"repro/internal/core"
	"repro/internal/solver"
)

// TestSearchAllocBudget is the allocation gate for the search loop: it
// grounds the benchmark-shaped ACloud data center of copTraceGolden once,
// then solves the cached model at node budgets 1000 and 4000. A search node
// must not allocate, so the 3000 extra nodes may cost at most one
// allocation per extra incumbent (the assignment it records). The budget is
// the difference itself, not a committed number: any per-node allocation
// multiplies by 3000 and fails.
func TestSearchAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation adds allocations")
	}
	n := benchACloudNode(t, 1000, 32768)
	if _, err := n.Solve(core.SolveOptions{}); err != nil {
		t.Fatal(err)
	}
	m := core.GroundedModel(n)
	// The first collection starts the runtime's mark workers, allocating
	// their goroutines; let it happen before either measurement.
	runtime.GC()
	solve := func(budget int64) (float64, *solver.Solution) {
		var sol *solver.Solution
		allocs := testing.AllocsPerRun(3, func() {
			sol = m.Solve(solver.Options{MaxNodes: budget, Propagate: true})
		})
		if sol.Stats.Nodes != budget {
			t.Fatalf("solve at budget %d explored %d nodes; the gate needs a budget-bound search", budget, sol.Stats.Nodes)
		}
		return allocs, sol
	}
	small, solSmall := solve(1000)
	large, solLarge := solve(4000)
	extra := solLarge.Stats.Solutions - solSmall.Stats.Solutions
	if large-small > float64(extra) {
		t.Fatalf("3000 more search nodes cost %.0f more allocations (%.0f -> %.0f) for %d more incumbents",
			large-small, small, large, extra)
	}
	t.Logf("3000 more search nodes: %+.0f allocations (%.0f -> %.0f), %d more incumbents",
		large-small, small, large, extra)
}
