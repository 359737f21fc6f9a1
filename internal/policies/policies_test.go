package policies

import (
	"crypto/sha256"
	"fmt"
	"strconv"
	"testing"

	"repro/internal/colog"
	"repro/internal/core"
	"repro/internal/solver"
)

func ival(v int64) colog.Value  { return colog.IntVal(v) }
func sval(s string) colog.Value { return colog.StringVal(s) }

func must(t *testing.T, err error) {
	t.Helper()
	if err != nil {
		t.Fatal(err)
	}
}

// TestRoutingMinCostPath: a diamond network where the direct edge is
// expensive; the solver must route around it.
func TestRoutingMinCostPath(t *testing.T) {
	n, err := NewNode(RoutingSrc, core.Config{SolverPropagate: true})
	must(t, err)
	// Edges: s->a->t cheap (1+1), s->t direct cost 10. Capacity 1 each.
	edges := []struct {
		x, y string
		w    int64
	}{{"s", "a", 1}, {"a", "t", 1}, {"s", "t", 10}}
	for _, e := range edges {
		must(t, n.Insert("edge", sval(e.x), sval(e.y), ival(e.w), ival(1)))
	}
	for _, nd := range []string{"s", "a", "t"} {
		must(t, n.Insert("netNode", sval(nd)))
	}
	must(t, n.Insert("flow", sval("f1"), sval("s"), sval("t")))
	// Balance: +1 at source, -1 at sink, 0 at intermediates.
	must(t, n.Insert("balance", sval("f1"), sval("s"), ival(1)))
	must(t, n.Insert("balance", sval("f1"), sval("a"), ival(0)))
	must(t, n.Insert("balance", sval("f1"), sval("t"), ival(-1)))
	res, err := n.Solve(core.SolveOptions{})
	must(t, err)
	if res.Status != solver.StatusOptimal {
		t.Fatalf("status = %v", res.Status)
	}
	if res.Objective != 2 {
		t.Fatalf("objective = %v, want 2 (route s->a->t)", res.Objective)
	}
	used := map[string]int64{}
	for _, a := range res.Assignments {
		used[a.Vals[1].S+">"+a.Vals[2].S] = a.Vals[3].I
	}
	if used["s>a"] != 1 || used["a>t"] != 1 || used["s>t"] != 0 {
		t.Fatalf("route = %v", used)
	}
}

// TestRoutingCapacityForcesDetour: two flows, direct edge capacity 1 — one
// flow must take the detour.
func TestRoutingCapacityForcesDetour(t *testing.T) {
	n, err := NewNode(RoutingSrc, core.Config{SolverPropagate: true})
	must(t, err)
	for _, e := range []struct {
		x, y string
		w    int64
		c    int64
	}{{"s", "t", 1, 1}, {"s", "a", 2, 2}, {"a", "t", 2, 2}} {
		must(t, n.Insert("edge", sval(e.x), sval(e.y), ival(e.w), ival(e.c)))
	}
	for _, nd := range []string{"s", "a", "t"} {
		must(t, n.Insert("netNode", sval(nd)))
	}
	for _, f := range []string{"f1", "f2"} {
		must(t, n.Insert("flow", sval(f), sval("s"), sval("t")))
		must(t, n.Insert("balance", sval(f), sval("s"), ival(1)))
		must(t, n.Insert("balance", sval(f), sval("a"), ival(0)))
		must(t, n.Insert("balance", sval(f), sval("t"), ival(-1)))
	}
	res, err := n.Solve(core.SolveOptions{})
	must(t, err)
	if !res.Feasible() {
		t.Fatalf("status = %v", res.Status)
	}
	// One flow direct (1), one detour (4) -> 5.
	if res.Objective != 5 {
		t.Fatalf("objective = %v, want 5", res.Objective)
	}
	direct := int64(0)
	for _, a := range res.Assignments {
		if a.Vals[1].S == "s" && a.Vals[2].S == "t" {
			direct += a.Vals[3].I
		}
	}
	if direct != 1 {
		t.Fatalf("direct edge carries %d flows, want 1 (capacity)", direct)
	}
}

// TestSchedulingMakespan: 4 jobs on 2 machines; optimal makespan balances
// the lengths.
func TestSchedulingMakespan(t *testing.T) {
	n, err := NewNode(SchedulingSrc, core.Config{SolverPropagate: true})
	must(t, err)
	for _, j := range []struct {
		id  string
		len int64
	}{{"j1", 7}, {"j2", 5}, {"j3", 4}, {"j4", 2}} {
		must(t, n.Insert("job", sval(j.id), ival(j.len)))
	}
	must(t, n.Insert("machine", sval("m1"), ival(4)))
	must(t, n.Insert("machine", sval("m2"), ival(4)))
	res, err := n.Solve(core.SolveOptions{})
	must(t, err)
	if res.Status != solver.StatusOptimal {
		t.Fatalf("status = %v", res.Status)
	}
	// Total 18, best split 9/9 (7+2, 5+4).
	if res.Objective != 9 {
		t.Fatalf("makespan = %v, want 9", res.Objective)
	}
}

// TestSchedulingSlotLimit: one machine with a single slot forces spreading.
func TestSchedulingSlotLimit(t *testing.T) {
	n, err := NewNode(SchedulingSrc, core.Config{SolverPropagate: true})
	must(t, err)
	for _, j := range []string{"j1", "j2", "j3"} {
		must(t, n.Insert("job", sval(j), ival(1)))
	}
	must(t, n.Insert("machine", sval("m1"), ival(1)))
	must(t, n.Insert("machine", sval("m2"), ival(5)))
	res, err := n.Solve(core.SolveOptions{})
	must(t, err)
	onM1 := int64(0)
	for _, a := range res.Assignments {
		if a.Vals[1].S == "m1" {
			onM1 += a.Vals[2].I
		}
	}
	if onM1 > 1 {
		t.Fatalf("m1 got %d jobs, slot limit 1", onM1)
	}
}

// TestPlacementRackDiversity: 2 replicas, three nodes of which two share a
// rack; the cheap same-rack pair is forbidden.
func TestPlacementRackDiversity(t *testing.T) {
	n, err := NewNode(PlacementSrc, core.Config{SolverPropagate: true})
	must(t, err)
	must(t, n.Insert("object", sval("db"), ival(2)))
	// n1/n2 on rack r1 (cheap), n3 on rack r2 (expensive).
	must(t, n.Insert("node", sval("n1"), sval("r1"), ival(1)))
	must(t, n.Insert("node", sval("n2"), sval("r1"), ival(1)))
	must(t, n.Insert("node", sval("n3"), sval("r2"), ival(5)))
	res, err := n.Solve(core.SolveOptions{})
	must(t, err)
	if res.Status != solver.StatusOptimal {
		t.Fatalf("status = %v", res.Status)
	}
	racks := map[string]int{}
	count := 0
	for _, a := range res.Assignments {
		if a.Vals[2].I == 1 {
			count++
			switch a.Vals[1].S {
			case "n1", "n2":
				racks["r1"]++
			case "n3":
				racks["r2"]++
			}
		}
	}
	if count != 2 {
		t.Fatalf("placed %d replicas, want 2", count)
	}
	if racks["r1"] > 1 {
		t.Fatalf("two replicas on one rack: %v", racks)
	}
	// Forced cost: 1 (one of n1/n2) + 5 (n3).
	if res.Objective != 6 {
		t.Fatalf("objective = %v, want 6", res.Objective)
	}
}

// TestPlacementInfeasibleWhenTooFewRacks: 3 replicas but only 2 racks.
func TestPlacementInfeasibleWhenTooFewRacks(t *testing.T) {
	n, err := NewNode(PlacementSrc, core.Config{SolverPropagate: true})
	must(t, err)
	must(t, n.Insert("object", sval("db"), ival(3)))
	must(t, n.Insert("node", sval("n1"), sval("r1"), ival(1)))
	must(t, n.Insert("node", sval("n2"), sval("r1"), ival(1)))
	must(t, n.Insert("node", sval("n3"), sval("r2"), ival(1)))
	res, err := n.Solve(core.SolveOptions{})
	must(t, err)
	if res.Status != solver.StatusInfeasible {
		t.Fatalf("status = %v, want infeasible", res.Status)
	}
}

// TestPoliciesAnalyzeCleanly verifies rule classification on all three.
func TestPoliciesAnalyzeCleanly(t *testing.T) {
	for _, src := range []string{RoutingSrc, SchedulingSrc, PlacementSrc} {
		if _, err := NewNode(src, core.Config{}); err != nil {
			t.Fatalf("policy does not build: %v", err)
		}
	}
}

// placementTrace fingerprints the placement solve of TestEngineEquivalence:
// status, objective, node and failure counts and a sha256 of the
// materialized assignments. It was recorded from the legacy forward-checking
// search core before that core was deleted; the event engine matched it at
// that point.
const placementTrace = "status=optimal obj=6 nodes=356 failures=148 assign=0f4ed98138e6158df4855a75e70de659b98a5a2fa517d7fd95b11f86f67e2915"

// TestEngineEquivalence solves the placement policy and requires the status,
// objective, search trace and assignments recorded in placementTrace.
func TestEngineEquivalence(t *testing.T) {
	n, err := NewNode(PlacementSrc, core.Config{SolverPropagate: true})
	must(t, err)
	racks := []string{"r1", "r2", "r3"}
	for i, rack := range racks {
		for j := 0; j < 2; j++ {
			must(t, n.Insert("node", sval(rack+"n"+string(rune('a'+j))), sval(rack), ival(int64(1+i))))
		}
	}
	for _, o := range []string{"o1", "o2"} {
		must(t, n.Insert("object", sval(o), ival(2)))
	}
	res, err := n.Solve(core.SolveOptions{})
	must(t, err)
	h := sha256.New()
	for _, a := range res.Assignments {
		fmt.Fprintf(h, "%s%v\n", a.Pred, a.Vals)
	}
	got := fmt.Sprintf("status=%s obj=%s nodes=%d failures=%d assign=%x",
		res.Status, strconv.FormatFloat(res.Objective, 'g', -1, 64), res.Stats.Nodes, res.Stats.Failures, h.Sum(nil))
	if got != placementTrace {
		t.Fatalf("trace diverged from the recorded legacy trace:\n got  %s\n want %s", got, placementTrace)
	}
}

// TestIncrementalEquivalence drives each bundled policy through a
// value-churn script on a fresh-grounding node and an incremental one in
// lockstep, requiring bit-identical solve results (including trace length)
// at every step.
func TestIncrementalEquivalence(t *testing.T) {
	cases := []struct {
		name string
		src  string
		keys map[string][]int
		load func(t *testing.T, n *core.Node)
		// churn mutates one value tick by tick; returns the op applied to
		// both nodes.
		churn func(step int, n *core.Node) error
	}{
		{
			name: "scheduling",
			src:  SchedulingSrc,
			keys: map[string][]int{"job": {0}, "machine": {0}},
			load: func(t *testing.T, n *core.Node) {
				for i, l := range []int64{4, 7, 3, 6} {
					must(t, n.Insert("job", sval(string(rune('a'+i))), ival(l)))
				}
				must(t, n.Insert("machine", sval("m1"), ival(3)))
				must(t, n.Insert("machine", sval("m2"), ival(3)))
			},
			churn: func(step int, n *core.Node) error {
				// Job lengths drift: a keyed value update per tick.
				j := string(rune('a' + step%4))
				return n.Insert("job", sval(j), ival(int64(3+(step*5)%9)))
			},
		},
		{
			name: "placement",
			src:  PlacementSrc,
			keys: map[string][]int{"object": {0}, "node": {0}},
			load: func(t *testing.T, n *core.Node) {
				must(t, n.Insert("object", sval("o1"), ival(2)))
				for i, c := range []int64{3, 5, 4, 2} {
					rack := sval(string(rune('A' + i%2)))
					must(t, n.Insert("node", sval(string(rune('n'))+string(rune('1'+i))), rack, ival(c)))
				}
			},
			churn: func(step int, n *core.Node) error {
				// Storage costs drift.
				nd := sval(string(rune('n')) + string(rune('1'+step%4)))
				rack := sval(string(rune('A' + step%2)))
				return n.Insert("node", nd, rack, ival(int64(1+(step*3)%7)))
			},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			build := func(incremental bool) *core.Node {
				n, err := NewNode(tc.src, core.Config{
					SolverPropagate:   true,
					Keys:              tc.keys,
					SolverIncremental: incremental,
				})
				must(t, err)
				tc.load(t, n)
				return n
			}
			fresh, inc := build(false), build(true)
			sawPatch := false
			for step := 0; step < 12; step++ {
				must(t, tc.churn(step, fresh))
				must(t, tc.churn(step, inc))
				fr, err := fresh.Solve(core.SolveOptions{})
				must(t, err)
				ir, err := inc.Solve(core.SolveOptions{})
				must(t, err)
				if fr.Status != ir.Status || fr.Objective != ir.Objective ||
					fr.Stats.Nodes != ir.Stats.Nodes {
					t.Fatalf("step %d: fresh %v/%v/%d nodes vs incremental %v/%v/%d nodes",
						step, fr.Status, fr.Objective, fr.Stats.Nodes,
						ir.Status, ir.Objective, ir.Stats.Nodes)
				}
				for i := range fr.Assignments {
					for j := range fr.Assignments[i].Vals {
						if !fr.Assignments[i].Vals[j].Equal(ir.Assignments[i].Vals[j]) {
							t.Fatalf("step %d: assignment %d differs", step, i)
						}
					}
				}
				if ir.Ground != nil && ir.Ground.ConstsPatched > 0 {
					sawPatch = true
				}
			}
			if !sawPatch {
				t.Fatalf("churn never hit the constant-patch path")
			}
		})
	}
}
