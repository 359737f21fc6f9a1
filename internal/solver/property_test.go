package solver

import (
	"fmt"
	"math"
	"math/rand"
	"os"
	"strconv"
	"strings"
	"testing"
)

// randomModel builds a small random COP exercising the constraint shapes the
// grounder emits: linear comparisons, boolean combinations of comparisons,
// and aggregate objectives (sum, min/max, stddev). All data is integer, so
// the engines' float arithmetic is exact.
func randomModel(rng *rand.Rand) *Model {
	m := NewModel()
	n := 2 + rng.Intn(4)
	vars := make([]*Var, n)
	for i := range vars {
		lo := int64(rng.Intn(3) - 1)
		vars[i] = m.IntVar(fmt.Sprintf("v%d", i), lo, lo+int64(1+rng.Intn(3)))
	}
	expr := func(i int) *Expr { return m.VarExpr(vars[i]) }
	randLin := func() *Expr {
		k := 1 + rng.Intn(n)
		terms := make([]*Expr, k)
		for i := range terms {
			terms[i] = m.Mul(m.ConstInt(int64(rng.Intn(5)-2)), expr(rng.Intn(n)))
		}
		return m.Sum(terms...)
	}
	randCmp := func() *Expr {
		lhs, rhs := randLin(), m.ConstInt(int64(rng.Intn(9)-4))
		switch rng.Intn(6) {
		case 0:
			return m.Le(lhs, rhs)
		case 1:
			return m.Ge(lhs, rhs)
		case 2:
			return m.Eq(lhs, rhs)
		case 3:
			return m.Ne(lhs, rhs)
		case 4:
			return m.Lt(lhs, rhs)
		default:
			return m.Gt(lhs, rhs)
		}
	}
	nCons := 1 + rng.Intn(3)
	for i := 0; i < nCons; i++ {
		c := randCmp()
		switch rng.Intn(4) {
		case 0:
			c = m.Or(c, randCmp())
		case 1:
			c = m.And(c, randCmp())
		case 2:
			c = m.Not(c)
		}
		m.Require(c)
	}
	all := make([]*Expr, n)
	for i := range all {
		all[i] = expr(i)
	}
	switch rng.Intn(5) {
	case 0:
		m.Minimize(randLin())
	case 1:
		m.Maximize(randLin())
	case 2:
		m.Minimize(m.StdDev(all...))
	case 3:
		m.Minimize(m.Add(m.Max(all...), m.Abs(randLin())))
	default:
		// satisfy
	}
	return m
}

// TestEnginesMatchBruteForce is the core solver invariant: on random small
// models the search, in every configuration, and exhaustive enumeration
// agree on status and optimal objective.
func TestEnginesMatchBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 200; trial++ {
		m := randomModel(rng)
		want := m.BruteForce()
		configs := []struct {
			name string
			opts Options
		}{
			{"event", Options{}},
			{"event-propagate", Options{Propagate: true}},
			{"event-fixpoint", Options{Fixpoint: true, Propagate: true}},
			{"event-nolinear", Options{DisableLinear: true}},
			{"event-activity", Options{ActivityOrder: true, Propagate: true}},
			{"event-restarts", Options{Restarts: 3, PhaseSaving: true, Propagate: true}},
		}
		for _, cfg := range configs {
			got := m.Solve(cfg.opts)
			if got.Status != want.Status {
				t.Fatalf("trial %d [%s]: status %v, brute force %v", trial, cfg.name, got.Status, want.Status)
			}
			if want.Status != StatusOptimal {
				continue
			}
			if math.Abs(got.Objective-want.Objective) > 1e-9 {
				t.Fatalf("trial %d [%s]: objective %v, brute force %v",
					trial, cfg.name, got.Objective, want.Objective)
			}
			// The returned assignment must actually be feasible and achieve
			// the reported objective.
			for ci, c := range m.Constraints() {
				if !c.EvalBool(got.Values) {
					t.Fatalf("trial %d [%s]: returned values violate constraint %d", trial, cfg.name, ci)
				}
			}
			if obj, _ := m.Objective(); obj != nil {
				if math.Abs(obj.Eval(got.Values)-got.Objective) > 1e-9 {
					t.Fatalf("trial %d [%s]: values do not achieve reported objective", trial, cfg.name)
				}
			}
		}
	}
}

// engineTraceGolden records one line per (trial, propagate, maxNodes) case
// of TestEventEngineTraceMatchesLegacy: status, objective, node and failure
// counts and the returned values. It was generated from the legacy
// forward-checking search core (the seed engine, since deleted), and the
// event engine reproduced every line before that core was removed. The
// file is an independent reference: a change to shared search code —
// branching order, candidate values, incumbent recording, budget checks —
// shows up as changed lines even where brute force still agrees on the
// optimum. A deliberate trace change replaces the affected lines with the
// "got" lines the test prints.
const engineTraceGolden = "testdata/engine_trace.golden"

// traceLine renders one solve in the engineTraceGolden format.
func traceLine(trial int, propagate bool, maxNodes int64, sol *Solution) string {
	vals := make([]string, len(sol.Values))
	for i, v := range sol.Values {
		vals[i] = strconv.FormatInt(v, 10)
	}
	return fmt.Sprintf("trial=%d propagate=%v maxNodes=%d status=%s obj=%s nodes=%d failures=%d values=%s",
		trial, propagate, maxNodes, sol.Status, strconv.FormatFloat(sol.Objective, 'g', -1, 64),
		sol.Stats.Nodes, sol.Stats.Failures, strings.Join(vals, ","))
}

// TestEventEngineTraceMatchesLegacy pins the search to the legacy trace
// recorded in engineTraceGolden: identical solutions, objectives, node and
// failure counts — including under binding node budgets, where any
// divergence in pruning decisions would surface as a different incumbent.
func TestEventEngineTraceMatchesLegacy(t *testing.T) {
	data, err := os.ReadFile(engineTraceGolden)
	if err != nil {
		t.Fatal(err)
	}
	want := strings.Split(strings.TrimSuffix(string(data), "\n"), "\n")
	rng := rand.New(rand.NewSource(23))
	line, diverged := 0, 0
	for trial := 0; trial < 150; trial++ {
		m := randomModel(rng)
		for _, propagate := range []bool{false, true} {
			for _, maxNodes := range []int64{0, 25} {
				got := traceLine(trial, propagate, maxNodes, m.Solve(Options{Propagate: propagate, MaxNodes: maxNodes}))
				if line >= len(want) {
					t.Fatalf("%s has only %d lines", engineTraceGolden, len(want))
				}
				if got != want[line] {
					diverged++
					if diverged <= 5 {
						t.Errorf("line %d diverged:\n got  %s\n want %s", line+1, got, want[line])
					}
				}
				line++
			}
		}
	}
	if diverged > 0 {
		t.Errorf("%d of %d lines diverge from %s", diverged, line, engineTraceGolden)
	}
	if line != len(want) {
		t.Errorf("%s has %d lines, the test produced %d", engineTraceGolden, len(want), line)
	}
}

// TestIncrementalStoreMatchesEvaluator drives both interval engines through
// the same random narrow/undo script and requires identical bounds on every
// node after every step. Four cases: integer data, where integer
// sums take flush's delta update; fractional constants, where they must be
// recomputed in full; a PatchConst between solves that turns integer
// constants fractional, so the prepared integrality marks must follow it;
// and emptied domains, whose reversed infinite intervals must also force
// the full recompute.
func TestIncrementalStoreMatchesEvaluator(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 60; trial++ {
		storeScript(t, fmt.Sprintf("integer trial %d", trial), randomModel(rng), rng, false)
	}
	for trial := 0; trial < 60; trial++ {
		m := randomModel(rng)
		for _, c := range constNodes(m) {
			m.PatchConst(c, c.K+0.1)
		}
		storeScript(t, fmt.Sprintf("fractional trial %d", trial), m, rng, false)
	}
	for trial := 0; trial < 60; trial++ {
		m := randomModel(rng)
		storeScript(t, fmt.Sprintf("patch trial %d before", trial), m, rng, false)
		for _, c := range constNodes(m) {
			if rng.Intn(2) == 0 {
				m.PatchConst(c, c.K/3)
			}
		}
		storeScript(t, fmt.Sprintf("patch trial %d after", trial), m, rng, false)
	}
	for trial := 0; trial < 60; trial++ {
		m := randomModel(rng)
		// A sum over min, max and a difference: with one argument emptied,
		// a term keeps an infinite bound while its other bound still moves.
		x, y := m.VarExpr(m.Vars()[0]), m.VarExpr(m.Vars()[1])
		m.Require(m.Ge(m.Sum(m.Max(x, y), m.Min(x, y), m.Sub(x, y)), m.ConstInt(0)))
		storeScript(t, fmt.Sprintf("empty trial %d", trial), m, rng, true)
	}
}

// constNodes returns the constant nodes reachable from m's constraints and
// objective, each once.
func constNodes(m *Model) []*Expr {
	seen := map[*Expr]bool{}
	var out []*Expr
	var walk func(e *Expr)
	walk = func(e *Expr) {
		if seen[e] {
			return
		}
		seen[e] = true
		if e.Op == OpConst {
			out = append(out, e)
		}
		for _, a := range e.Args {
			walk(a)
		}
	}
	for _, c := range m.Constraints() {
		walk(c)
	}
	if obj, _ := m.Objective(); obj != nil {
		walk(obj)
	}
	return out
}

// sameIv reports whether two intervals are equal, counting NaN bounds as
// equal to each other (an emptied domain can produce them). The store keeps
// a memo whose new value compares equal, so -0 and +0 count as equal.
func sameIv(a, b Interval) bool {
	same := func(x, y float64) bool { return x == y || math.IsNaN(x) && math.IsNaN(y) }
	return same(a.Lo, b.Lo) && same(a.Hi, b.Hi)
}

// storeScript runs one random narrow/undo script over a fresh store and
// evaluator for m and compares them after every step. With empties, a
// narrowing sometimes empties the domain.
func storeScript(t *testing.T, label string, m *Model, rng *rand.Rand, empties bool) {
	t.Helper()
	prep := m.prepare()
	st := newIvStore(m, prep)
	ev := newEvaluator(m)
	check := func(step string) {
		ev.nextGen()
		for id, e := range prep.exprs {
			if e == nil {
				continue
			}
			if got, want := st.memo[id], ev.interval(e); !sameIv(got, want) {
				t.Fatalf("%s %s: node %d (%s): store %v evaluator %v",
					label, step, id, e, got, want)
			}
		}
	}
	check("initial")
	type frame struct {
		mk  storeMark
		vid int
		dom Domain
	}
	var stack []frame
	for step := 0; step < 40; step++ {
		if len(stack) > 0 && rng.Intn(3) == 0 {
			f := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			st.undoTo(f.mk)
			ev.dom[f.vid] = f.dom
			check("undo")
			continue
		}
		vid := rng.Intn(len(m.Vars()))
		d := st.dom[vid]
		if d.Size() <= 1 {
			continue
		}
		vals := d.Values()
		nd := NewDomain(vals[:1+rng.Intn(len(vals))]...)
		if empties && rng.Intn(4) == 0 {
			nd = Domain{}
		}
		stack = append(stack, frame{st.mark(), vid, d})
		st.setDom(vid, nd)
		st.flush()
		ev.dom[vid] = nd
		check("narrow")
	}
}

// TestLinearResidualCachesStayConsistent narrows and backtracks randomly and
// checks the cached residual sums always equal a fresh recomputation.
func TestLinearResidualCachesStayConsistent(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	for trial := 0; trial < 60; trial++ {
		m := randomModel(rng)
		prep := m.prepare()
		if len(prep.lin) == 0 {
			continue
		}
		st := newIvStore(m, prep)
		le := newLinEngine(prep, st.dom)
		verify := func(step string) {
			for ci := range le.cons {
				c := &le.cons[ci]
				wantLo, wantHi := 0.0, 0.0
				for ti, term := range c.terms {
					lo, hi := termBounds(term.coef, st.dom[term.v.ID])
					if lo != c.lo[ti] || hi != c.hi[ti] {
						t.Fatalf("trial %d %s: con %d term %d: cached [%g,%g] fresh [%g,%g]",
							trial, step, ci, ti, c.lo[ti], c.hi[ti], lo, hi)
					}
					wantLo += lo
					wantHi += hi
				}
				if math.Abs(wantLo-c.sumLo) > 1e-9 || math.Abs(wantHi-c.sumHi) > 1e-9 {
					t.Fatalf("trial %d %s: con %d sums cached [%g,%g] fresh [%g,%g]",
						trial, step, ci, c.sumLo, c.sumHi, wantLo, wantHi)
				}
			}
		}
		verify("initial")
		type frame struct {
			mk  storeMark
			lin int
		}
		var stack []frame
		for step := 0; step < 40; step++ {
			if len(stack) > 0 && rng.Intn(3) == 0 {
				f := stack[len(stack)-1]
				stack = stack[:len(stack)-1]
				st.undoTo(f.mk)
				le.undoTo(f.lin)
				verify("undo")
				continue
			}
			vid := rng.Intn(len(m.Vars()))
			d := st.dom[vid]
			if d.Size() <= 1 {
				continue
			}
			vals := d.Values()
			nd := NewDomain(vals[:1+rng.Intn(len(vals))]...)
			stack = append(stack, frame{st.mark(), le.markLen()})
			st.setDom(vid, nd)
			le.update(vid, nd)
			verify("narrow")
		}
	}
}

// TestRestartsFindOptimum checks the restart driver proves optimality on a
// model it can exhaust, and that phase saving reproduces warm-start
// behaviour (first incumbent = hinted solution when feasible).
func TestRestartsFindOptimum(t *testing.T) {
	m := NewModel()
	n := 6
	vars := make([]*Var, n)
	terms := make([]*Expr, n)
	for i := range vars {
		vars[i] = m.IntVar("v", 0, 4)
		terms[i] = m.VarExpr(vars[i])
	}
	m.Require(m.Ge(m.Sum(terms...), m.Const(10)))
	m.Minimize(m.Sum(terms...))
	plain := m.Solve(Options{Propagate: true})
	restarted := m.Solve(Options{Propagate: true, Restarts: 4, PhaseSaving: true, ActivityOrder: true})
	if restarted.Status != StatusOptimal {
		t.Fatalf("restarted status %v, want optimal", restarted.Status)
	}
	if restarted.Objective != plain.Objective {
		t.Fatalf("restarted objective %v, plain %v", restarted.Objective, plain.Objective)
	}
}

// TestShapeStats pins the constraint classification the grounder relies on.
func TestShapeStats(t *testing.T) {
	m := NewModel()
	x := m.IntVar("x", 0, 5)
	y := m.IntVar("y", 0, 5)
	z := m.IntVar("z", 0, 5)
	m.Require(m.Le(m.Add(m.VarExpr(x), m.VarExpr(y)), m.Const(7)))                         // linear
	m.Require(m.Ne(m.VarExpr(x), m.VarExpr(y)))                                            // binary (not linear)
	m.Require(m.Gt(m.Mul(m.VarExpr(z), m.VarExpr(z)), m.Const(1)))                         // unary (nonlinear)
	m.Require(m.Le(m.CountDistinct(m.VarExpr(x), m.VarExpr(y), m.VarExpr(z)), m.Const(2))) // generic
	got := m.ShapeStats()
	want := map[string]int{"linear": 1, "binary": 1, "unary": 1, "generic": 1}
	for k, v := range want {
		if got[k] != v {
			t.Fatalf("ShapeStats[%s] = %d, want %d (all: %v)", k, got[k], v, got)
		}
	}
}

// TestFixpointStrongerNeverWorse: fixpoint mode must reach the same optimum
// with no more nodes than the default schedule.
func TestFixpointStrongerNeverWorse(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	for trial := 0; trial < 80; trial++ {
		m := randomModel(rng)
		def := m.Solve(Options{Propagate: true})
		fix := m.Solve(Options{Propagate: true, Fixpoint: true})
		if def.Status != fix.Status {
			t.Fatalf("trial %d: status %v vs fixpoint %v", trial, def.Status, fix.Status)
		}
		if def.Status == StatusOptimal && math.Abs(def.Objective-fix.Objective) > 1e-9 {
			t.Fatalf("trial %d: objective %v vs fixpoint %v", trial, def.Objective, fix.Objective)
		}
		if fix.Stats.Nodes > def.Stats.Nodes {
			t.Fatalf("trial %d: fixpoint explored more nodes (%d) than default (%d)",
				trial, fix.Stats.Nodes, def.Stats.Nodes)
		}
	}
}
