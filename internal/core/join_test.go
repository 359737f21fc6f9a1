package core

import (
	"fmt"
	"math"
	"reflect"
	"strings"
	"sync"
	"testing"

	"repro/internal/colog"
)

// ---------------------------------------------------------------- frames

func TestBindFrameTrailUndo(t *testing.T) {
	slots := newRuleSlots()
	a, b := slots.add("A"), slots.add("B")
	f := newBindFrame(slots)
	f.bind(a, ival(1))
	m := f.mark()
	f.bind(b, ival(2))
	if v, ok := f.lookupVar("B"); !ok || v.I != 2 {
		t.Fatalf("B = %v,%v after bind", v, ok)
	}
	f.undo(m)
	if _, ok := f.lookupVar("B"); ok {
		t.Fatal("B still bound after undo")
	}
	if v, ok := f.lookupVar("A"); !ok || v.I != 1 {
		t.Fatalf("A lost across undo: %v,%v", v, ok)
	}
	f.reset()
	if _, ok := f.lookupVar("A"); ok {
		t.Fatal("A survives reset")
	}
	_ = b
}

func TestCollectRuleSlotsDeterministic(t *testing.T) {
	prog, err := colog.Parse(`r1 out(A,SUM<C>) <- p(A,B), q(B,D), C==B+D.`)
	if err != nil {
		t.Fatal(err)
	}
	s := collectRuleSlots(prog.Rules[0])
	want := []string{"A", "B", "D", "C"}
	if !reflect.DeepEqual(s.names, want) {
		t.Fatalf("slot order = %v, want %v", s.names, want)
	}
}

// ------------------------------------------------------ index-key selection

// TestJoinBoundColsSelection: constants and previously bound variables form
// the probe key; repeated variables within the atom count once (the second
// occurrence is an equality check, not a key column).
func TestJoinBoundColsSelection(t *testing.T) {
	prog, err := colog.Parse(`r1 out(X,Y) <- p(X,Y), q(X,5,Y,X).`)
	if err != nil {
		t.Fatal(err)
	}
	var q *colog.Atom
	for _, l := range prog.Rules[0].Body {
		if al, ok := l.(*colog.AtomLit); ok && al.Atom.Pred == "q" {
			q = al.Atom
		}
	}
	bound := newVarSet(collectRuleSlots(prog.Rules[0]))
	for _, name := range []string{"X", "Y"} {
		i, err := bound.slots.slot(name)
		if err != nil {
			t.Fatal(err)
		}
		bound.in[i] = true
	}
	cols := joinBoundCols(q, bound)
	if !reflect.DeepEqual(cols, []int{0, 1, 2}) {
		t.Fatalf("boundCols = %v, want [0 1 2] (X, const 5, Y; repeated X excluded)", cols)
	}
}

// TestCompiledPlanProbesIndex: the delta plan for a join with a shared
// variable must carry probe ops, and the scan plan must not.
func TestCompiledPlanProbesIndex(t *testing.T) {
	n := newTestNode(t, `r1 pair(V,W) <- vm(V,H), vm2(W,H).`, Config{})
	var joinStep *planStep
	for _, p := range n.prog.plans["vm"] {
		for i := range p.steps {
			if i > 0 && p.steps[i].kind == stepJoin {
				joinStep = &p.steps[i]
			}
		}
	}
	if joinStep == nil {
		t.Fatal("no join step compiled for trigger vm")
	}
	if !reflect.DeepEqual(joinStep.boundCols, []int{1}) {
		t.Fatalf("boundCols = %v, want [1] (H bound by trigger)", joinStep.boundCols)
	}
	if len(joinStep.probeOps) != 1 || joinStep.probeOps[0].slot < 0 {
		t.Fatalf("probeOps = %+v, want one slot-backed op", joinStep.probeOps)
	}
}

// ---------------------------------------------------------- literal order

// TestGroundPlanOrdersMostBoundFirst: Compile builds the ground plan once,
// most bound columns first and body order on ties, with no regard to table
// sizes; two nodes of the Program then solve concurrently on it (run under
// -race) without changing it.
func TestGroundPlanOrdersMostBoundFirst(t *testing.T) {
	prog, err := Compile(mustAnalyze(t, `
goal maximize C in obj(C).
var pick(V,X) forall cand(V).
r1 cand(V) <- vm(V).
d1 obj(SUM<S>) <- big(H,W), small(H), pick(V,X), S==X*W.
`, nil), nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	var gp *groundPlan
	for _, p := range prog.ground {
		if p != nil && p.label == "d1" {
			gp = p
		}
	}
	if gp == nil {
		t.Fatal("no ground plan compiled for d1")
	}
	// big and small tie with nothing bound: big comes first by body order,
	// then small probes it on H; pick joins after, and S==X*W binds last.
	var preds []string
	for _, st := range gp.steps {
		if st.kind == stepJoin {
			preds = append(preds, st.atom.Pred)
		}
	}
	if !reflect.DeepEqual(preds, []string{"big", "small", "pick"}) {
		t.Fatalf("join order = %v, want [big small pick]", preds)
	}
	if gp.steps[1].atom.Pred != "small" || !reflect.DeepEqual(gp.steps[1].boundCols, []int{0}) {
		t.Fatalf("small join binds columns %v, want [0] (H)", gp.steps[1].boundCols)
	}
	if last := gp.steps[len(gp.steps)-1]; last.kind != stepBind || last.bindVar != "S" {
		t.Fatalf("last step = %+v, want the definitional bind of S", last)
	}
	before := fmt.Sprintf("%+v", gp.steps)

	// Each node joins big (8 rows) with one small row of its own: h3 and h5.
	want := []float64{3, 5}
	nodes := make([]*Node, len(want))
	for i := range nodes {
		if nodes[i], err = prog.NewNode(fmt.Sprintf("n%d", i), Config{}, nil); err != nil {
			t.Fatal(err)
		}
		for h := 0; h < 8; h++ {
			nodes[i].Insert("big", sval(fmt.Sprintf("h%d", h)), ival(int64(h)))
		}
		nodes[i].Insert("small", sval(fmt.Sprintf("h%d", int(want[i]))))
		nodes[i].Insert("vm", sval("v1"))
	}
	got := make([]float64, len(nodes))
	errs := make([]error, len(nodes))
	var wg sync.WaitGroup
	for i, n := range nodes {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for round := 0; round < 3 && errs[i] == nil; round++ {
				var res *SolveResult
				if res, errs[i] = n.Solve(SolveOptions{}); errs[i] == nil {
					got[i] = res.Objective
				}
			}
		}()
	}
	wg.Wait()
	for i := range nodes {
		if errs[i] != nil {
			t.Fatal(errs[i])
		}
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("objectives = %v, want %v", got, want)
	}
	if after := fmt.Sprintf("%+v", gp.steps); after != before {
		t.Fatalf("solving changed the shared plan:\n%s\n%s", before, after)
	}
}

// TestGroundPlanUnorderableBody: a condition whose variables can never all
// bind must fail planning with the grounder's ordering error — in Compile,
// so building the node fails.
func TestGroundPlanUnorderableBody(t *testing.T) {
	res := mustAnalyze(t, `
goal minimize C in obj(C).
var pick(V,X) forall cand(V).
r1 cand(V) <- vm(V).
d1 obj(SUM<X>) <- pick(V,X), J+K==2.
`, nil)
	_, err := NewNode("local", res, Config{}, nil)
	if err == nil || !strings.Contains(err.Error(), "cannot order body literals during grounding") {
		t.Fatalf("err = %v, want the grounding ordering error from NewNode", err)
	}
}

// ------------------------------------------------------------- rule levels

func TestSolverRuleLevels(t *testing.T) {
	prog, err := colog.Parse(`
d1 a(X,S) <- base(X,V), S==V+1.
d2 b(X,S) <- base(X,V), S==V+2.
d3 c(X,S) <- a(X,V), b(X,W), S==V+W.
d4 d(X,S) <- c(X,V), S==V*2.
`)
	if err != nil {
		t.Fatal(err)
	}
	order := []int{0, 1, 2, 3}
	levels := solverRuleLevels(prog.Rules, order)
	want := [][]int{{0, 1}, {2}, {3}}
	if !reflect.DeepEqual(levels, want) {
		t.Fatalf("levels = %v, want %v", levels, want)
	}
}

// --------------------------------------------- parallel ground determinism

// TestParallelGroundingDeterministic proves that grounding with a worker
// pool yields exactly the serial SolveResult. Run with -race, this also
// exercises the pool for data races: the ACloud-style program below has
// four independent derivation rules per level, so workers genuinely
// overlap.
func TestParallelGroundingDeterministic(t *testing.T) {
	src := `
goal minimize C in hostStdevCpu(C).
var assign(Vid,Hid,V) forall toAssign(Vid,Hid).
r1 toAssign(Vid,Hid) <- vm(Vid,Cpu,Mem), host(Hid).
d1 hostCpu(Hid,SUM<C>) <- assign(Vid,Hid,V), vm(Vid,Cpu,Mem), C==V*Cpu.
d2 hostStdevCpu(STDEV<C>) <- host(Hid), hostCpu(Hid,C).
d3 assignCount(Vid,SUM<V>) <- assign(Vid,Hid,V).
c1 assignCount(Vid,V) -> V==1.
d4 hostMem(Hid,SUM<M>) <- assign(Vid,Hid,V), vm(Vid,Cpu,Mem), M==V*Mem.
c2 hostMem(Hid,M) -> memCap(Cap), M<=Cap.
`
	build := func(workers int) *Node {
		n := newTestNode(t, src, Config{SolverPropagate: true, GroundWorkers: workers})
		for h := 0; h < 3; h++ {
			n.Insert("host", sval(fmt.Sprintf("h%d", h)))
		}
		n.Insert("memCap", ival(4096))
		for v := 0; v < 9; v++ {
			n.Insert("vm", sval(fmt.Sprintf("vm%d", v)), ival(int64(10+v*7)), ival(512))
		}
		return n
	}
	serial := build(1)
	want, err := serial.Solve(SolveOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !want.Feasible() {
		t.Fatalf("serial solve infeasible: %+v", want)
	}
	for round := 0; round < 3; round++ {
		par := build(8)
		got, err := par.Solve(SolveOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if got.Status != want.Status || math.Abs(got.Objective-want.Objective) > 0 {
			t.Fatalf("round %d: parallel result %v/%v, serial %v/%v",
				round, got.Status, got.Objective, want.Status, want.Objective)
		}
		if !reflect.DeepEqual(got.Assignments, want.Assignments) {
			t.Fatalf("round %d: assignments diverge:\n got %v\nwant %v", round, got.Assignments, want.Assignments)
		}
		if got.NumVars != want.NumVars || got.NumCons != want.NumCons {
			t.Fatalf("round %d: model shape %d/%d vs %d/%d",
				round, got.NumVars, got.NumCons, want.NumVars, want.NumCons)
		}
	}
}

// TestParallelGroundingMatchesSerialOnScenarios replays the corpus-style
// load-balance program at both worker settings.
func TestParallelGroundingMatchesSerialOnScenarios(t *testing.T) {
	src := `
goal minimize C in imbalance(C).
var assign(V,H,A) forall toAssign(V,H).
r1 toAssign(V,H) <- vm(V,C), host(H).
d1 hostLoad(H,SUM<X>) <- assign(V,H,A), vm(V,C), X==A*C.
d2 placed(V,SUM<A>) <- assign(V,H,A).
c1 placed(V,A) -> A==1.
d3 imbalance(STDEV<X>) <- hostLoad(H,X).
`
	results := map[int]*SolveResult{}
	for _, workers := range []int{1, 4} {
		n := newTestNode(t, src, Config{SolverPropagate: true, GroundWorkers: workers})
		for i, c := range []int64{40, 10, 30, 20} {
			n.Insert("vm", ival(int64(i+1)), ival(c))
		}
		n.Insert("host", ival(1))
		n.Insert("host", ival(2))
		res, err := n.Solve(SolveOptions{})
		if err != nil {
			t.Fatal(err)
		}
		results[workers] = res
	}
	if results[1].Objective != results[4].Objective || results[1].Objective != 0 {
		t.Fatalf("objectives: serial %v parallel %v, want 0", results[1].Objective, results[4].Objective)
	}
	if !reflect.DeepEqual(results[1].Assignments, results[4].Assignments) {
		t.Fatalf("assignments diverge:\n serial %v\n parallel %v", results[1].Assignments, results[4].Assignments)
	}
}

// ------------------------------------------------------------ reassignment

// TestAssignRebindBacktrack: an assignment that overwrites an already-bound
// variable must restore the previous value when the enclosing join
// backtracks — with facts r(1,10) and r(1,20), both reassigned values must
// derive (regression: the undo trail only tracks fresh bindings, so a
// rebind used to clear the slot and fail the second row's equality check).
func TestAssignRebindBacktrack(t *testing.T) {
	n := newTestNode(t, `r1 h(X) <- q(X), r(X,Z), X:=Z.`, Config{})
	n.Insert("r", ival(1), ival(10))
	n.Insert("r", ival(1), ival(20))
	n.Insert("q", ival(1))
	got := n.Rows("h")
	if len(got) != 2 || got[0][0].I != 10 || got[1][0].I != 20 {
		t.Fatalf("h = %v, want [[10] [20]]", got)
	}
}

// TestGroundAssignRebind: the grounder's assignment step must handle
// reassignment of a variable bound by an earlier atom. V is bound by the
// pick join, then overwritten inside the m join; on backtrack to m's second
// row, V's original binding must be restored or the row's equality check
// compares against a stale value and drops the derivation.
func TestGroundAssignRebind(t *testing.T) {
	n := newTestNode(t, `
goal minimize C in obj(C).
var pick(V,X) forall cand(V).
r1 cand(V) <- vm(V).
d1 obj(SUM<C>) <- pick(V,X), m(V,W), V:=W, C==X*W+1.
`, Config{SolverPropagate: true})
	n.Insert("vm", sval("v1"))
	n.Insert("m", sval("v1"), ival(2))
	n.Insert("m", sval("v1"), ival(3))
	res, err := n.Solve(SolveOptions{})
	if err != nil {
		t.Fatal(err)
	}
	// Both m rows must contribute: (2X+1)+(3X+1) = 5X+2, minimized at
	// X=0 -> 2. A corrupted frame drops the second row and yields 1.
	if res.Objective != 2 {
		t.Fatalf("objective = %v, want 2", res.Objective)
	}
}

// ------------------------------------------------------ assignment order

// TestAssignReassignFollowsBodyOrder: X:=Z reassigns X, which r and q
// mention before it, so it runs after both joins whichever fact arrives
// first: r(1,10) joins q(1,5) and X becomes 10.
func TestAssignReassignFollowsBodyOrder(t *testing.T) {
	for _, qFirst := range []bool{true, false} {
		n := newTestNode(t, `r1 h(X,Y) <- r(X,Z), q(X,Y), X:=Z.`, Config{})
		insertQ := func() {
			n.Insert("q", ival(1), ival(5))
			n.Insert("q", ival(10), ival(7))
		}
		if qFirst {
			insertQ()
		}
		n.Insert("r", ival(1), ival(10))
		if !qFirst {
			insertQ()
		}
		if got := fmt.Sprint(n.Rows("h")); got != "[[10 5]]" {
			t.Fatalf("q first=%v: h = %s, want [[10 5]]", qFirst, got)
		}
	}
}

// TestAssignDefinesTarget: X:=Y+1 is the first literal to mention X, so it
// defines X; a join that binds X first makes it the check X==Y+1. With
// q(5) and r(1) no rule instance holds, whichever fact arrives first; q(2)
// then derives h(2).
func TestAssignDefinesTarget(t *testing.T) {
	for _, qFirst := range []bool{true, false} {
		n := newTestNode(t, `r1 h(X) <- X:=Y+1, q(X), r(Y).`, Config{})
		if qFirst {
			n.Insert("q", ival(5))
		}
		n.Insert("r", ival(1))
		if !qFirst {
			n.Insert("q", ival(5))
		}
		if got := fmt.Sprint(n.Rows("h")); got != "[]" {
			t.Fatalf("q first=%v: h = %s, want []", qFirst, got)
		}
		n.Insert("q", ival(2))
		if got := fmt.Sprint(n.Rows("h")); got != "[[2]]" {
			t.Fatalf("q first=%v: h = %s after q(2), want [[2]]", qFirst, got)
		}
	}
}

// TestGroundAssignRebindAfterLaterJoin is TestGroundAssignRebind with m
// listed before pick: V:=W reassigns V, which pick mentions before it, so
// the ground plan joins pick on the original V first. Each m row
// contributes W*X+1, minimized at X=0.
func TestGroundAssignRebindAfterLaterJoin(t *testing.T) {
	for _, ws := range [][]int64{{2}, {2, 3}} {
		n := newTestNode(t, `
goal minimize C in obj(C).
var pick(V,X) forall cand(V).
r1 cand(V) <- vm(V).
d1 obj(SUM<C>) <- m(V,W), pick(V,X), V:=W, C==X*W+1.
`, Config{SolverPropagate: true})
		n.Insert("vm", sval("v1"))
		for _, w := range ws {
			n.Insert("m", sval("v1"), ival(w))
		}
		res, err := n.Solve(SolveOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if want := float64(len(ws)); !res.HasGoal || res.Objective != want {
			t.Fatalf("m rows %v: objective = %v (goal %v), want %v", ws, res.Objective, res.HasGoal, want)
		}
	}
}

// TestAssignReassignReadLaterRejected: a literal after a reassignment that
// reads its target is a compile error.
func TestAssignReassignReadLaterRejected(t *testing.T) {
	res := mustAnalyze(t, `r1 h(X) <- r(X,Z), X:=Z, q(X).`, nil)
	_, err := NewNode("local", res, Config{}, nil)
	if err == nil || !strings.Contains(err.Error(), "reassigns X") {
		t.Fatalf("err = %v, want a reassignment error", err)
	}
}

// ------------------------------------------------- review regression tests

// TestStdevRetractionPrecision: retracting a huge value from a STDEV group
// must leave an exact result for the remaining small values (an incremental
// float sum-of-squares would cancel catastrophically; the engine recomputes
// from the multiset instead).
func TestStdevRetractionPrecision(t *testing.T) {
	n := newTestNode(t, `r1 s(STDEV<C>) <- v(C).`, Config{})
	n.Insert("v", ival(1000000000))
	n.Insert("v", ival(3))
	n.Insert("v", ival(5))
	n.Delete("v", ival(1000000000))
	got := row1(n, "s")
	if got == nil || got[0].F != 1.0 {
		t.Fatalf("stdev after retraction = %v, want 1 (stdev of {3,5})", got)
	}
}

// TestParallelGroundingPanicPropagates: a model-construction panic inside a
// grounding worker must re-raise on the calling goroutine, where callers
// can recover — identical to the serial path.
func TestParallelGroundingPanicPropagates(t *testing.T) {
	src := `
goal minimize C in obj(C).
var pick(V,X) forall cand(V).
r1 cand(V) <- vm(V).
d1 a(V,S) <- pick(V,X), S==(X==1)+2.
d2 b(V,S) <- pick(V,X), S==X+1.
d3 obj(SUM<S>) <- a(V,S).
`
	for _, workers := range []int{1, 4} {
		n := newTestNode(t, src, Config{GroundWorkers: workers})
		n.Insert("vm", sval("v1"))
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("workers=%d: expected model type-mismatch panic to reach the caller", workers)
				}
			}()
			n.Solve(SolveOptions{})
		}()
	}
}
