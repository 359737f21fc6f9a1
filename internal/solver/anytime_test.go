package solver

import (
	"math/rand"
	"testing"
	"time"
)

// knapsackModel builds a 0/1 knapsack COP large enough that the search
// explores thousands of nodes and finds a long improving-incumbent chain:
// the anytime tests need real mid-search interrupts, which the tiny random
// property models never reach (the Interrupt hook is polled every 256
// nodes).
func knapsackModel(rng *rand.Rand, n int) *Model {
	m := NewModel()
	vars := make([]*Var, n)
	var value, weight []*Expr
	for i := range vars {
		vars[i] = m.IntVar("b", 0, 1)
		v := int64(1 + rng.Intn(40))
		w := int64(1 + rng.Intn(30))
		value = append(value, m.Mul(m.ConstInt(v), m.VarExpr(vars[i])))
		weight = append(weight, m.Mul(m.ConstInt(w), m.VarExpr(vars[i])))
	}
	m.Require(m.Le(m.Sum(weight...), m.ConstInt(int64(n)*8)))
	m.Maximize(m.Sum(value...))
	return m
}

// incumbentLog collects the OnIncumbent stream.
type incumbentLog struct {
	objs []float64
	last []int64
}

func (l *incumbentLog) hook(obj float64, vals []int64) {
	l.objs = append(l.objs, obj)
	l.last = vals
}

// checkMonotone fails when the incumbent objective stream ever worsens.
func checkMonotone(t *testing.T, sense Sense, objs []float64) {
	t.Helper()
	for i := 1; i < len(objs); i++ {
		if sense == Minimize && objs[i] > objs[i-1] {
			t.Fatalf("incumbent stream worsened (minimize): %v", objs)
		}
		if sense == Maximize && objs[i] < objs[i-1] {
			t.Fatalf("incumbent stream worsened (maximize): %v", objs)
		}
	}
}

// TestAnytimeHooksPreserveTrace pins the zero-cost half of the anytime
// contract: installing the incumbent-snapshot and interrupt hooks with an
// unbounded budget (the interrupt never fires) reproduces the exact
// full-solve trace — status, objective, values, and node/failure/solution
// counts — with and without restarts.
func TestAnytimeHooksPreserveTrace(t *testing.T) {
	for seed := int64(0); seed < 40; seed++ {
		m := randomModel(rand.New(rand.NewSource(seed)))
		for _, restarts := range []int{0, 3} {
			plain := m.Solve(Options{Propagate: true, Restarts: restarts})

			log := &incumbentLog{}
			polled := 0
			hooked := m.Solve(Options{
				Propagate: true, Restarts: restarts,
				Interrupt:   func() bool { polled++; return false },
				OnIncumbent: log.hook,
			})

			if plain.Status != hooked.Status || plain.Objective != hooked.Objective {
				t.Fatalf("seed %d restarts %d: %v/%v vs hooked %v/%v",
					seed, restarts, plain.Status, plain.Objective, hooked.Status, hooked.Objective)
			}
			if plain.Stats.Nodes != hooked.Stats.Nodes ||
				plain.Stats.Failures != hooked.Stats.Failures ||
				plain.Stats.Solutions != hooked.Stats.Solutions {
				t.Fatalf("seed %d restarts %d: trace diverged: %+v vs %+v",
					seed, restarts, plain.Stats, hooked.Stats)
			}
			if hooked.Stats.Interrupted {
				t.Fatalf("seed %d: interrupted reported with a never-firing hook", seed)
			}
			for i := range plain.Values {
				if plain.Values[i] != hooked.Values[i] {
					t.Fatalf("seed %d restarts %d: values diverged at %d", seed, restarts, i)
				}
			}
			checkMonotone(t, m.sense, log.objs)
			// The last snapshot must be the solution the solve returned.
			if hooked.Feasible() && m.objective != nil {
				if len(log.objs) == 0 || log.objs[len(log.objs)-1] != hooked.Objective {
					t.Fatalf("seed %d restarts %d: last incumbent %v != returned %v",
						seed, restarts, log.objs, hooked.Objective)
				}
			}
		}
	}
}

// TestAnytimeIncumbentMonotone drives the knapsack model to a mid-search
// interrupt at varying depths and checks the hard half of the anytime
// contract: the incumbent stream never worsens across budget interrupts,
// the interrupted solve returns exactly the last snapshot it reported, and
// Stats.Interrupted distinguishes the hook stop from an ordinary
// completion.
func TestAnytimeIncumbentMonotone(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	m := knapsackModel(rng, 22)
	full := m.Solve(Options{Propagate: true})
	if !full.Feasible() {
		t.Fatalf("knapsack model infeasible: %v", full.Status)
	}
	if full.Stats.Nodes < 2048 {
		t.Fatalf("knapsack model too easy for interrupt coverage: %d nodes", full.Stats.Nodes)
	}

	for _, restarts := range []int{0, 2} {
		for _, stopAfter := range []int{1, 3, 7, 20} {
			log := &incumbentLog{}
			polls := 0
			sol := m.Solve(Options{
				Propagate: true, Restarts: restarts,
				OnIncumbent: log.hook,
				Interrupt:   func() bool { polls++; return polls > stopAfter },
			})
			checkMonotone(t, Maximize, log.objs)
			if !sol.Stats.Interrupted {
				t.Fatalf("restarts %d stopAfter %d: interrupt did not register", restarts, stopAfter)
			}
			if sol.Status == StatusOptimal {
				t.Fatalf("restarts %d stopAfter %d: interrupted solve claimed optimality", restarts, stopAfter)
			}
			if !sol.Feasible() {
				continue // interrupted before the first incumbent: nothing to cross-check
			}
			if got, want := sol.Objective, log.objs[len(log.objs)-1]; got != want {
				t.Fatalf("restarts %d stopAfter %d: returned %v, last incumbent %v", restarts, stopAfter, got, want)
			}
			for i, v := range log.last {
				if sol.Values[i] != v {
					t.Fatalf("restarts %d stopAfter %d: returned values differ from last snapshot at var %d", restarts, stopAfter, i)
				}
			}
			// The incumbent at interrupt can never beat the full solve.
			if sol.Objective > full.Objective {
				t.Fatalf("restarts %d stopAfter %d: interrupted objective %v beats optimum %v", restarts, stopAfter, sol.Objective, full.Objective)
			}
		}
	}
}

// TestInterruptStopsPromptly pins the budget-epsilon guarantee the serving
// tick loop relies on: once the interrupt hook starts returning true, the
// search returns within the polling cadence, not after exhausting the
// space.
func TestInterruptStopsPromptly(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	m := knapsackModel(rng, 26)
	fire := time.Now().Add(5 * time.Millisecond)
	start := time.Now()
	sol := m.Solve(Options{
		Propagate: true,
		Interrupt: func() bool { return time.Now().After(fire) },
	})
	elapsed := time.Since(start)
	if !sol.Stats.Interrupted {
		t.Skipf("search finished in %v before the 5ms interrupt; model too easy on this host", elapsed)
	}
	// Generous epsilon: CI hosts are slow, but an interrupt must never
	// degenerate into a full exhaustive search.
	if elapsed > 2*time.Second {
		t.Fatalf("interrupted search took %v", elapsed)
	}
}
