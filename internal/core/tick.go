package core

import (
	"sort"
	"time"

	"repro/internal/colog"
)

// This file is the serving runtime's view of a Node: a tick is one
// re-ground + re-solve under a deadline, returning the decision rows and
// the delta against what the previous tick decided. The serving layer
// (internal/serve) admits churn batches between ticks and publishes the
// deltas; the equivalence contract — quiescent serving state byte-identical
// to a batch re-solve over the same cumulative facts — rests on two rules
// enforced here: degraded (deadline-interrupted) solves never materialize,
// and completed solves materialize exactly as a batch Solve would.

// TickOptions configure one serving tick.
type TickOptions struct {
	// Deadline is the per-tick solve budget. When positive and Interrupt
	// is nil, the tick installs a wall-clock interrupt hook for it. Zero
	// with a nil Interrupt runs the solve to its configured budgets.
	Deadline time.Duration
	// Interrupt overrides the deadline hook, letting the serving layer
	// share one deadline across grounding and solving or inject synthetic
	// deadline pressure in tests.
	Interrupt func() bool
	// Hint forwards a warm-start hint to the solve (see SolveOptions.Hint).
	Hint func(pred string, vals []colog.Value) (int64, bool)
}

// DecisionDelta is one change to the published decision state: a var-table
// row appearing (+1) or disappearing (-1) relative to the previous tick.
type DecisionDelta struct {
	Sign  int
	Tuple Tuple
}

// TickResult reports one serving tick.
type TickResult struct {
	// Result is the underlying solve outcome; nil when the model was
	// empty (no decision variables to place).
	Result *SolveResult
	// Degraded mirrors Result.Degraded: the deadline fired before the
	// search completed and Decisions carry the best incumbent, published
	// as an overlay without touching the engine's tables.
	Degraded bool
	// Decisions is the full decision snapshot for this tick: every
	// var-table row the solve assigned, in grounding order.
	Decisions []Assignment
	// Deltas is the multiset difference between this tick's decisions and
	// the previous tick's, retractions first, in deterministic
	// pred-then-row order. An unchanged placement produces no deltas.
	Deltas []DecisionDelta
	// Objective and HasGoal report the goal value for optimization
	// programs.
	Objective float64
	HasGoal   bool
}

// Tick runs one serving tick: re-ground (incrementally when configured) and
// re-solve under the tick deadline, commit the log, then diff the decision
// rows against the previous tick's. Completed ticks materialize into the
// engine exactly like Solve; degraded ticks leave the engine untouched and
// only advance the published-decision snapshot. A failed commit fails the
// tick.
func (n *Node) Tick(opts TickOptions) (*TickResult, error) {
	n.mu.Lock()
	sopts := SolveOptions{
		Hint:          opts.Hint,
		Interrupt:     opts.Interrupt,
		DeferDegraded: true,
	}
	if sopts.Interrupt == nil && opts.Deadline > 0 {
		deadline := time.Now().Add(opts.Deadline)
		sopts.Interrupt = func() bool { return time.Now().After(deadline) }
	}
	res, err := n.solveLocked(sopts)
	if err == nil {
		// Commit point: the tick's records (admitted churn, the solve
		// outcome) are durable before its decision is, and a failed commit
		// publishes nothing and leaves lastDecisions where it was.
		err = n.commit()
	}
	if err != nil {
		n.mu.Unlock()
		return nil, err
	}
	tr := &TickResult{Result: res, Degraded: res.Degraded}
	if res.Feasible() {
		tr.Decisions = res.Assignments
		tr.Objective = res.Objective
		tr.HasGoal = res.HasGoal
		tr.Deltas = DiffDecisions(n.lastDecisions, tr.Decisions)
		n.lastDecisions = tr.Decisions
	}
	var out []outMsg
	if !n.holding {
		out = n.takeOutbox()
	}
	n.mu.Unlock()
	if err := n.flush(out); err != nil {
		return tr, err
	}
	return tr, nil
}

// DiffDecisions computes the multiset difference between two decision
// snapshots as retract/insert deltas: rows only in prev are retracted, rows
// only in next inserted, and rows present in both (with multiplicity) emit
// nothing. The result is ordered retractions-then-insertions, each sorted
// by predicate then row key, so identical snapshots in any order produce an
// identical delta stream.
func DiffDecisions(prev, next []Assignment) []DecisionDelta {
	counts := make(map[string]int, len(prev)+len(next))
	key := func(a Assignment) string { return a.Pred + "\x00" + valsKey(a.Vals) }
	for _, a := range prev {
		counts[key(a)]--
	}
	for _, a := range next {
		counts[key(a)]++
	}
	var deltas []DecisionDelta
	emit := func(src []Assignment, sign int) {
		seen := make(map[string]int, len(src))
		for _, a := range src {
			k := key(a)
			want := counts[k]
			if sign > 0 && want <= 0 {
				continue
			}
			if sign < 0 && want >= 0 {
				continue
			}
			if sign > 0 && seen[k] >= want {
				continue
			}
			if sign < 0 && seen[k] >= -want {
				continue
			}
			seen[k]++
			deltas = append(deltas, DecisionDelta{Sign: sign, Tuple: Tuple{Pred: a.Pred, Vals: a.Vals}})
		}
	}
	emit(prev, -1)
	emit(next, +1)
	sort.SliceStable(deltas, func(i, j int) bool {
		if deltas[i].Sign != deltas[j].Sign {
			return deltas[i].Sign < deltas[j].Sign
		}
		if deltas[i].Tuple.Pred != deltas[j].Tuple.Pred {
			return deltas[i].Tuple.Pred < deltas[j].Tuple.Pred
		}
		return deltas[i].Tuple.Key() < deltas[j].Tuple.Key()
	})
	return deltas
}
