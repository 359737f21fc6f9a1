// Package solver implements a finite-domain integer constraint solver with
// branch-and-bound optimization. It plays the role Gecode plays in the
// Cologne paper: Colog solver rules are grounded into an expression DAG over
// decision variables, constraints restrict the search space, and a
// goal-directed top-down search finds (approximately) optimal assignments
// under a configurable time budget (the paper's SOLVER_MAX_TIME).
//
// The solver is anytime: when the budget expires it returns the best
// incumbent found so far, mirroring the paper's close-to-optimal behaviour
// under a 10-second cap (section 6.2).
package solver

import (
	"errors"
	"fmt"
	"time"
)

// Status describes the outcome of a Solve call.
type Status int

const (
	// StatusUnknown means the search neither found a solution nor proved
	// infeasibility within its budget.
	StatusUnknown Status = iota
	// StatusOptimal means the returned solution was proved optimal (or, for
	// satisfy problems, a solution was found).
	StatusOptimal
	// StatusFeasible means a solution was found but the search stopped (time
	// budget or node limit) before proving optimality.
	StatusFeasible
	// StatusInfeasible means the search proved there is no solution.
	StatusInfeasible
)

// String returns a human-readable status name.
func (s Status) String() string {
	switch s {
	case StatusOptimal:
		return "optimal"
	case StatusFeasible:
		return "feasible"
	case StatusInfeasible:
		return "infeasible"
	default:
		return "unknown"
	}
}

// Sense is the direction of optimization.
type Sense int

const (
	// Satisfy searches for any assignment meeting all constraints.
	Satisfy Sense = iota
	// Minimize searches for the assignment minimizing the objective.
	Minimize
	// Maximize searches for the assignment maximizing the objective.
	Maximize
)

// String returns the Colog keyword for the sense.
func (s Sense) String() string {
	switch s {
	case Minimize:
		return "minimize"
	case Maximize:
		return "maximize"
	default:
		return "satisfy"
	}
}

// Options control a single Solve invocation.
type Options struct {
	// MaxTime bounds wall-clock search time (the paper's SOLVER_MAX_TIME).
	// Zero means no limit.
	MaxTime time.Duration
	// MaxNodes bounds the number of search nodes explored. Zero means no
	// limit.
	MaxNodes int64
	// Hints supplies a warm-start value per variable ID; the hinted value is
	// branched on first, so the first incumbent reproduces the hint when it
	// is feasible. The ACloud policy warm-starts from the current VM
	// placement.
	Hints map[int]int64
	// Propagate enables singleton bounds propagation on binary/small-domain
	// variables after each assignment (stronger pruning, more work per node).
	Propagate bool
	// FirstSolution stops the search at the first incumbent (useful with
	// Hints to reproduce a warm start exactly).
	FirstSolution bool
	// DisableLinear turns off the dedicated linear-constraint propagator
	// (bounds tightening on sum(c_i*x_i) op K constraints); used by the
	// ablation benchmarks.
	DisableLinear bool
	// LinearMinTerms is the minimum number of terms a recognized
	// multi-term linear constraint needs before a dedicated propagator is
	// attached to it. Short sums are cheaper under plain forward checking
	// than under the propagator's per-update bookkeeping, so small
	// multi-term linears are skipped by default; single-term linears are
	// always attached (they tighten a domain once near the root and are
	// nearly free afterwards). 0 selects the built-in default threshold; 1
	// attaches a propagator to every linear constraint (the pre-threshold
	// behavior).
	LinearMinTerms int
	// DynamicOrder selects the branching variable dynamically by smallest
	// current domain (dom heuristic) instead of the static
	// smallest-initial-domain order. Pays off when propagation shrinks
	// domains unevenly.
	DynamicOrder bool
	// Fixpoint drains the propagator queue to fixpoint after every
	// assignment — linear residual tightening plus table propagators on
	// small binary constraints — instead of the default single-pass
	// schedule. Strictly stronger pruning: statuses and optima
	// are unchanged, but node counts drop, so under a node budget the
	// incumbent may differ from the default configuration's.
	Fixpoint bool
	// Restarts, when positive, runs the search as a restart sequence:
	// Restarts runs capped at geometrically growing node limits, then a
	// final run on the remaining budget. The best incumbent and conflict
	// activity carry across runs.
	Restarts int
	// PhaseSaving (with Restarts) feeds each restart's warm-start hints
	// from the best incumbent so far — or, before the first incumbent, the
	// last values branched on — so later runs dive back to the promising
	// region first.
	PhaseSaving bool
	// ActivityOrder branches on the variable with the highest conflict
	// activity (scaled by current domain size) instead of the static
	// order. Changes traversal order, so with ties or budgets
	// the returned solution may differ from the default configuration's.
	ActivityOrder bool
	// ValueOrder optionally reorders the candidate values for a variable;
	// it receives the variable and the default order and returns the order
	// to use. Nil keeps the default ascending order (after any hint).
	ValueOrder func(v *Var, vals []int64) []int64
	// Interrupt, when non-nil, is an external budget hook polled at the
	// same cadence as the wall-clock deadline check (every 256 search
	// nodes). The first call that returns true stops the search with the
	// best incumbent found so far (anytime semantics) and marks
	// Stats.Interrupted. While the hook returns false the search trace is
	// byte-identical to a run without the hook — installing it costs
	// nothing until it fires. The serving runtime's per-tick deadline is
	// this hook.
	Interrupt func() bool
	// OnIncumbent, when non-nil, is called synchronously each time the
	// search accepts a strictly improving incumbent: the objective value
	// and a snapshot of the assignment (indexed by Var.ID; the callback
	// owns the slice). Across a whole Solve call — restart sequences
	// included — the reported objectives are monotonically non-worsening,
	// so the last snapshot received before a budget interrupt is exactly
	// the solution the interrupted Solve returns.
	OnIncumbent func(obj float64, vals []int64)
}

// Stats reports search effort.
type Stats struct {
	Nodes     int64         // search nodes explored
	Failures  int64         // dead ends (constraint violations or bound cuts)
	Solutions int64         // incumbents found
	Elapsed   time.Duration // wall-clock search time
	// Interrupted reports that the Options.Interrupt hook stopped the
	// search before it ran to completion. Node and wall-clock budget stops
	// do not set it; callers distinguish "my deadline fired" from "the
	// configured budget expired" with this flag.
	Interrupted bool
}

// Solution is the result of a Solve call.
type Solution struct {
	Status    Status
	Values    []int64 // indexed by Var.ID; valid when Status is Optimal or Feasible
	Objective float64 // objective value; 0 for satisfy problems
	Stats     Stats
}

// Value returns the assigned value of v in the solution.
func (s *Solution) Value(v *Var) int64 {
	if v == nil || s.Values == nil || v.ID >= len(s.Values) {
		return 0
	}
	return s.Values[v.ID]
}

// Feasible reports whether the solution carries a usable assignment.
func (s *Solution) Feasible() bool {
	return s.Status == StatusOptimal || s.Status == StatusFeasible
}

// ErrNoVariables is returned when Solve is called on a model without
// decision variables and with an objective that cannot be evaluated.
var ErrNoVariables = errors.New("solver: model has no decision variables")

// ErrTypeMismatch is returned when a boolean expression is used in a numeric
// position or vice versa.
type ErrTypeMismatch struct {
	Want, Got string
	Context   string
}

func (e *ErrTypeMismatch) Error() string {
	return fmt.Sprintf("solver: type mismatch in %s: want %s, got %s", e.Context, e.Want, e.Got)
}
