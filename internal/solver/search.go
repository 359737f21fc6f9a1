package solver

import (
	"math"
	"sort"
	"time"
)

// searchState holds the propagation-independent part of one search: the
// incumbent, the assignment scratch, phase memory, and the node/time
// budget. The event-driven searcher (propagate.go) embeds it.
type searchState struct {
	m    *Model
	opts Options

	assigned []bool
	assign   []int64
	phase    []int64 // last value branched on per variable (phase saving)
	hasPhase []bool

	best    []int64
	bestObj float64
	haveSol bool

	activity []float64 // per-variable conflict activity (activity ordering)
	actInc   float64

	// Dense warm-start hints (hintSet[vid] -> hintVal[vid]), resolved once
	// from Options.Hints so the per-node candidate ordering does no map
	// lookups, plus per-depth candidate-order scratch reused across sibling
	// nodes (a fresh slice per node dominated hinted-search overhead).
	hintVal []int64
	hintSet []bool
	valBufs [][]int64

	stats       Stats
	deadline    time.Time
	stopped     bool
	interrupted bool // Options.Interrupt fired (anytime stop)
}

func newSearchState(m *Model, opts Options, start time.Time) *searchState {
	s := &searchState{
		m:        m,
		opts:     opts,
		assigned: make([]bool, len(m.vars)),
		assign:   make([]int64, len(m.vars)),
		phase:    make([]int64, len(m.vars)),
		hasPhase: make([]bool, len(m.vars)),
		bestObj:  math.Inf(1),
	}
	if m.sense == Maximize {
		s.bestObj = math.Inf(-1)
	}
	if opts.MaxTime > 0 {
		s.deadline = start.Add(opts.MaxTime)
	}
	if len(opts.Hints) > 0 {
		s.hintVal = make([]int64, len(m.vars))
		s.hintSet = make([]bool, len(m.vars))
		for vid, val := range opts.Hints {
			if vid >= 0 && vid < len(m.vars) {
				s.hintVal[vid] = val
				s.hintSet[vid] = true
			}
		}
	}
	return s
}

// checkBudget returns true when the search must stop.
func (s *searchState) checkBudget() bool {
	if s.stopped {
		return true
	}
	if s.opts.MaxNodes > 0 && s.stats.Nodes >= s.opts.MaxNodes {
		s.stopped = true
		return true
	}
	if s.stats.Nodes&0xFF == 0 {
		if !s.deadline.IsZero() && time.Now().After(s.deadline) {
			s.stopped = true
			return true
		}
		if s.opts.Interrupt != nil && s.opts.Interrupt() {
			s.stopped = true
			s.interrupted = true
			return true
		}
	}
	return false
}

// candidateValues returns the values to branch on for v given its current
// domain, hint first. depth selects the reusable ordering buffer: siblings
// at one depth share it, recursion below uses deeper ones, so the reordered
// list stays valid for the whole branching loop without allocating.
//
// Hints steer only the descent to the first incumbent: that descent is the
// warm-start dive (it reproduces the hinted placement when feasible, and
// backtracks past infeasible hint values). Once an incumbent exists the
// search reverts to plain domain order — the hint's information survives in
// the bound cut, and the per-node reordering cost drops to zero.
func (s *searchState) candidateValues(dom Domain, v *Var, depth int) []int64 {
	vals := dom.Values()
	hint, hasHint := int64(0), false
	if s.hintSet != nil && !s.haveSol && s.hintSet[v.ID] {
		if h := s.hintVal[v.ID]; dom.Contains(h) {
			hint, hasHint = h, true
		}
	}
	if !hasHint && s.opts.ValueOrder == nil {
		return vals
	}
	for len(s.valBufs) <= depth {
		s.valBufs = append(s.valBufs, nil)
	}
	ordered := s.valBufs[depth][:0]
	if hasHint {
		ordered = append(ordered, hint)
	}
	for _, val := range vals {
		if hasHint && val == hint {
			continue
		}
		ordered = append(ordered, val)
	}
	s.valBufs[depth] = ordered
	if s.opts.ValueOrder != nil {
		ordered = s.opts.ValueOrder(v, ordered)
	}
	return ordered
}

// record considers a complete assignment as a new incumbent: constraints are
// verified exactly, and the incumbent is replaced only on strict objective
// improvement (so traversal order fully determines the returned solution).
func (s *searchState) record(vals []int64) {
	for _, c := range s.m.constraints {
		if !c.EvalBool(vals) {
			return
		}
	}
	obj := 0.0
	if s.m.objective != nil {
		obj = s.m.objective.Eval(vals)
		const eps = 1e-9
		if s.haveSol {
			if s.m.sense == Minimize && obj >= s.bestObj-eps {
				return
			}
			if s.m.sense == Maximize && obj <= s.bestObj+eps {
				return
			}
		}
	} else if s.haveSol {
		return
	}
	s.best = vals
	s.bestObj = obj
	s.haveSol = true
	s.stats.Solutions++
	if s.opts.OnIncumbent != nil {
		snap := make([]int64, len(vals))
		copy(snap, vals)
		s.opts.OnIncumbent(obj, snap)
	}
}

// boundCut applies the branch-and-bound objective cut given the objective's
// current bounds.
func (s *searchState) boundCut(iv Interval) bool {
	const eps = 1e-9
	if s.m.sense == Minimize {
		return iv.Lo < s.bestObj-eps
	}
	return iv.Hi > s.bestObj+eps
}

// notePhase records the value branched on for phase saving.
func (s *searchState) notePhase(vid int, val int64) {
	s.phase[vid] = val
	s.hasPhase[vid] = true
}

// bumpActivity raises the conflict activity of a variable (MiniSat-style
// geometric bumping: the increment grows so recent conflicts dominate).
func (s *searchState) bumpActivity(vid int) {
	if s.activity == nil {
		return
	}
	s.activity[vid] += s.actInc
	if s.activity[vid] > 1e100 {
		for i := range s.activity {
			s.activity[i] *= 1e-100
		}
		s.actInc *= 1e-100
	}
}

func (s *searchState) decayActivity() {
	if s.activity != nil {
		s.actInc /= activityDecay
	}
}

const activityDecay = 0.95

// finish assembles the Solution from the search outcome. complete reports
// whether the search space was exhausted.
func (s *searchState) finish(sol *Solution, complete bool) {
	switch {
	case s.haveSol && complete:
		sol.Status = StatusOptimal
	case s.haveSol:
		sol.Status = StatusFeasible
	case complete:
		sol.Status = StatusInfeasible
	default:
		sol.Status = StatusUnknown
	}
	if s.haveSol {
		sol.Values = s.best
		if s.m.objective != nil {
			sol.Objective = s.bestObj
		}
	}
}

// staticOrder returns the default branching order:
// most-constrained variables (smallest root domains) first, breaking ties by
// creation order, which in Cologne groups variables of the same grounded
// table together.
func staticOrder(m *Model) []int {
	order := make([]int, len(m.vars))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool {
		da, db := m.vars[order[a]].Dom.Size(), m.vars[order[b]].Dom.Size()
		if da != db {
			return da < db
		}
		return order[a] < order[b]
	})
	return order
}

// Solve searches for an assignment satisfying all constraints and, if an
// objective is set, optimizing it. The search is anytime: on budget
// exhaustion the best incumbent found so far is returned with
// StatusFeasible.
//
// The search core is the event-driven propagation engine (propagate.go).
// With Options.Restarts > 0 the search restarts with geometrically
// growing node limits, carrying the incumbent, conflict activity, and
// (optionally) saved phases across runs.
func (m *Model) Solve(opts Options) *Solution {
	if opts.Restarts > 0 {
		return m.solveRestarts(opts)
	}
	sol, _ := m.solveOnce(opts, nil)
	return sol
}

// solveOnce runs a single (non-restarted) search. prev optionally carries
// state from an earlier restart (conflict activity). The returned searchState
// exposes phase memory and activity to the restart driver.
func (m *Model) solveOnce(opts Options, prev *searchState) (*Solution, *searchState) {
	start := time.Now()
	state := newSearchState(m, opts, start)
	if opts.ActivityOrder {
		state.activity = make([]float64, len(m.vars))
		state.actInc = 1.0
		if prev != nil && prev.activity != nil {
			copy(state.activity, prev.activity)
			state.actInc = prev.actInc
		}
	}

	sol := &Solution{Status: StatusUnknown}
	defer func() {
		state.stats.Elapsed = time.Since(start)
		state.stats.Interrupted = state.interrupted
		sol.Stats = state.stats
	}()

	if len(m.vars) == 0 {
		// Degenerate model: only constant constraints and objective.
		ev := newEvaluator(m)
		for _, c := range m.constraints {
			if ev.interval(c).False() {
				sol.Status = StatusInfeasible
				return sol, state
			}
		}
		sol.Status = StatusOptimal
		sol.Values = []int64{}
		if m.objective != nil {
			sol.Objective = m.objective.Eval(nil)
		}
		return sol, state
	}

	m.solveEvent(state, sol)
	return sol, state
}

// solveRestarts runs the search as a restart sequence: each run is capped at
// a geometrically growing node limit, the final run gets the remaining
// budget. The best incumbent is kept across runs and, with PhaseSaving, its
// values feed the next run's warm-start hints; conflict activity persists so
// activity ordering actually benefits from what earlier runs learned.
func (m *Model) solveRestarts(opts Options) *Solution {
	start := time.Now()
	var deadline time.Time
	if opts.MaxTime > 0 {
		deadline = start.Add(opts.MaxTime)
	}
	runOpts := opts
	runOpts.Restarts = 0
	// Each restarted run resets its own incumbent, so a later run may
	// re-find a worse solution than an earlier run's best. The exposed
	// incumbent stream must stay monotone across the whole sequence
	// (anytime contract), so filter the per-run callbacks against the
	// global best before forwarding.
	if opts.OnIncumbent != nil {
		user := opts.OnIncumbent
		haveBest, bestObj := false, 0.0
		const eps = 1e-9
		runOpts.OnIncumbent = func(obj float64, vals []int64) {
			if haveBest {
				switch {
				case m.objective == nil:
					return
				case m.sense == Minimize && obj >= bestObj-eps:
					return
				case m.sense == Maximize && obj <= bestObj+eps:
					return
				}
			}
			haveBest, bestObj = true, obj
			user(obj, vals)
		}
	}

	limit := int64(len(m.vars)) * 16
	if limit < 256 {
		limit = 256
	}
	var agg Stats
	var best *Solution
	var prev *searchState
	hints := opts.Hints
	for r := 0; ; r++ {
		if opts.MaxNodes > 0 && agg.Nodes >= opts.MaxNodes {
			break
		}
		if opts.MaxTime > 0 && !time.Now().Before(deadline) {
			break
		}
		last := r >= opts.Restarts
		ro := runOpts
		ro.Hints = hints
		switch {
		case opts.MaxNodes > 0:
			rem := opts.MaxNodes - agg.Nodes
			ro.MaxNodes = rem
			if !last && limit < rem {
				ro.MaxNodes = limit
			}
		case !last:
			ro.MaxNodes = limit
		default:
			ro.MaxNodes = 0
		}
		if opts.MaxTime > 0 {
			ro.MaxTime = time.Until(deadline)
		}
		sol, state := m.solveOnce(ro, prev)
		agg.Nodes += sol.Stats.Nodes
		agg.Failures += sol.Stats.Failures
		agg.Solutions += sol.Stats.Solutions
		agg.Interrupted = agg.Interrupted || sol.Stats.Interrupted
		if betterSolution(m.sense, m.objective != nil, sol, best) {
			best = sol
		}
		if sol.Status == StatusOptimal || sol.Status == StatusInfeasible {
			// Proved within the limit: the run's answer is exact.
			best = sol
			break
		}
		if sol.Stats.Interrupted {
			// The external hook asked for the incumbent; don't start
			// another run just to have it interrupted at its first node.
			break
		}
		if opts.FirstSolution && sol.Feasible() {
			// The caller asked for the first incumbent; restarting would
			// search for more.
			best = sol
			break
		}
		if last {
			break
		}
		if opts.PhaseSaving {
			hints = phaseHints(opts.Hints, state, best)
		}
		prev = state
		limit *= 2
	}
	if best == nil {
		best = &Solution{Status: StatusUnknown}
	}
	agg.Elapsed = time.Since(start)
	best.Stats = agg
	return best
}

// betterSolution reports whether a improves on b as the carried incumbent.
func betterSolution(sense Sense, hasObj bool, a, b *Solution) bool {
	if a == nil || !a.Feasible() {
		return false
	}
	if b == nil || !b.Feasible() {
		return true
	}
	if !hasObj {
		return false
	}
	const eps = 1e-9
	if sense == Minimize {
		return a.Objective < b.Objective-eps
	}
	return a.Objective > b.Objective+eps
}

// phaseHints merges the user's warm-start hints with saved phases: the best
// incumbent's values when one exists, otherwise the last values branched on.
func phaseHints(user map[int]int64, state *searchState, best *Solution) map[int]int64 {
	merged := make(map[int]int64, len(user)+len(state.phase))
	for k, v := range user {
		merged[k] = v
	}
	if best != nil && best.Feasible() && best.Values != nil {
		for vid, val := range best.Values {
			merged[vid] = val
		}
		return merged
	}
	for vid := range state.phase {
		if state.hasPhase[vid] {
			merged[vid] = state.phase[vid]
		}
	}
	return merged
}
