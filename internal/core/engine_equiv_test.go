package core

import (
	"crypto/sha256"
	"fmt"
	"strconv"
	"testing"

	"repro/internal/solver"
)

// solveMiniACloud grounds and solves the mini-ACloud COP under one solver
// configuration, on a node seeded with enough VMs that the node budget
// binds — the regime where any change in pruning decisions would surface
// as a different incumbent.
func solveMiniACloud(t *testing.T, cfg Config) *SolveResult {
	t.Helper()
	n := newTestNode(t, acloudMini, cfg)
	for h := 0; h < 3; h++ {
		n.Insert("host", sval(fmt.Sprintf("h%d", h)), ival(0), ival(0))
		n.Insert("hostMemThres", sval(fmt.Sprintf("h%d", h)), ival(1<<20))
	}
	for v := 0; v < 12; v++ {
		n.Insert("vm", sval(fmt.Sprintf("v%02d", v)), ival(int64(10+(v*13)%45)), ival(512))
	}
	res, err := n.Solve(SolveOptions{})
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// solveTrace fingerprints, per node budget, the mini-ACloud solve of
// TestSolveEngineEquivalence. The lines were recorded from the legacy
// forward-checking search core before it was deleted; the event engine
// matched both of them at that point.
var solveTrace = map[int64]string{
	0:    "status=optimal obj=0 nodes=2966 failures=1117 assign=0df11a3824481e591e8c04c2774f8f7938e53a37d0e5e217f2102157c0253ec1",
	1500: "status=feasible obj=13.490737563232042 nodes=1500 failures=534 assign=6f61c54bd5cb708f9cf1071d561987de5f00d9651363a6f7e5c0684645fe8fc7",
}

// traceFingerprint renders a solve as status, objective, node and failure
// counts and a sha256 of the materialized assignments.
func traceFingerprint(r *SolveResult) string {
	h := sha256.New()
	for _, a := range r.Assignments {
		fmt.Fprintf(h, "%s%v\n", a.Pred, a.Vals)
	}
	return fmt.Sprintf("status=%s obj=%s nodes=%d failures=%d assign=%x",
		r.Status, strconv.FormatFloat(r.Objective, 'g', -1, 64), r.Stats.Nodes, r.Stats.Failures, h.Sum(nil))
}

// TestSolveEngineEquivalence pins the search, through the whole grounding
// pipeline, to the legacy trace recorded in solveTrace: identical status,
// objective, node/failure counts and materialized assignments, with and
// without a binding node budget.
func TestSolveEngineEquivalence(t *testing.T) {
	for _, budget := range []int64{0, 1500} {
		got := traceFingerprint(solveMiniACloud(t, Config{SolverPropagate: true, SolverMaxNodes: budget}))
		if want := solveTrace[budget]; got != want {
			t.Errorf("budget=%d: trace diverged from the recorded legacy trace:\n got  %s\n want %s", budget, got, want)
		}
	}
}

// TestSolveClassifiesShapes checks the grounder reports the propagator-shape
// classification: the ACloud COP grounds into linear constraints only
// (assignment counts and memory caps).
func TestSolveClassifiesShapes(t *testing.T) {
	res := solveMiniACloud(t, Config{SolverPropagate: true})
	if res.Shapes == nil {
		t.Fatal("SolveResult.Shapes not populated")
	}
	if res.Shapes["linear"] == 0 {
		t.Fatalf("expected linear constraint shapes, got %v", res.Shapes)
	}
	for shape := range res.Shapes {
		switch shape {
		case "linear", "unary", "binary", "generic", "const":
		default:
			t.Fatalf("unknown shape %q in %v", shape, res.Shapes)
		}
	}
}

// TestSolveRestartConfig exercises the restart knobs through the grounder:
// the restarted solve must reach the same optimum as the plain one.
func TestSolveRestartConfig(t *testing.T) {
	plain := solveMiniACloud(t, Config{SolverPropagate: true})
	restarted := solveMiniACloud(t, Config{SolverPropagate: true, SolverRestarts: 3})
	fixpoint := solveMiniACloud(t, Config{SolverPropagate: true, SolverFixpoint: true})
	if plain.Status != solver.StatusOptimal {
		t.Fatalf("plain solve status %v", plain.Status)
	}
	if restarted.Status != solver.StatusOptimal || restarted.Objective != plain.Objective {
		t.Fatalf("restarted: status %v objective %v, want optimal %v",
			restarted.Status, restarted.Objective, plain.Objective)
	}
	if fixpoint.Status != solver.StatusOptimal || fixpoint.Objective != plain.Objective {
		t.Fatalf("fixpoint: status %v objective %v, want optimal %v",
			fixpoint.Status, fixpoint.Objective, plain.Objective)
	}
	if fixpoint.Stats.Nodes > plain.Stats.Nodes {
		t.Fatalf("fixpoint explored more nodes (%d) than default (%d)",
			fixpoint.Stats.Nodes, plain.Stats.Nodes)
	}
}
