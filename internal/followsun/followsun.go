// Package followsun implements the paper's Follow-the-Sun use case
// (sections 3.1.2, 4.3, 6.3): geographically distributed data centers
// iteratively negotiate VM migrations over their links, each negotiation
// solving a local COP on one Cologne instance and exchanging results with
// the neighbor. The harness reproduces Figure 4 (normalized total cost as
// distributed solving converges, 2-10 data centers) and Figure 5 (per-node
// communication overhead).
package followsun

import (
	"fmt"
	"math/rand"
	"sort"
	"time"

	"repro/internal/cluster"
	"repro/internal/colog"
	"repro/internal/core"
	"repro/internal/programs"
	"repro/internal/solver"
	"repro/internal/transport"
)

// Params configure one experiment run (defaults follow section 6.3).
type Params struct {
	NumDCs      int   // data centers (paper sweeps 2-10)
	Degree      int   // average network degree (paper: 3)
	Capacity    int64 // resource capacity per DC (paper: 60)
	DemandMax   int64 // initial allocation per demand location (paper: 0-10)
	CommCostMin int64 // communication cost range (paper: 50-100)
	CommCostMax int64
	MigCostMin  int64 // migration cost range (paper: 10-20)
	MigCostMax  int64
	OpCost      int64 // operating cost (paper: 10)

	NegotiationInterval time.Duration // timer between rounds (paper: 5 s)
	LinkLatency         time.Duration // simulated one-way latency

	MaxMigrates    int64 // per-link migration cap (policy d11/c3); 0 = uncapped
	SolverMaxNodes int64
	SolverMaxTime  time.Duration
	// SolverIncremental enables incremental re-grounding with solver-model
	// patching between ticks (see core.Config).
	SolverIncremental bool

	// SparseDemands restricts each data center's demand universe to itself
	// (dc rows) and its hosting/cost tables to itself plus its direct
	// neighbors, instead of the paper's all-pairs tables. Per-link COPs stay
	// small at any cluster size, which is what makes the generated
	// 200-link rings tractable (see RingParams).
	SparseDemands bool

	Seed int64
}

// DefaultParams returns the section 6.3 configuration for n data centers.
func DefaultParams(n int) Params {
	return Params{
		NumDCs: n, Degree: 3, Capacity: 60, DemandMax: 10,
		CommCostMin: 50, CommCostMax: 100,
		MigCostMin: 10, MigCostMax: 20, OpCost: 10,
		NegotiationInterval: 5 * time.Second,
		LinkLatency:         2 * time.Millisecond,
		SolverMaxNodes:      30000,
		SolverIncremental:   true,
		Seed:                1,
	}
}

// RingParams returns a generated ring scenario of n data centers (and
// therefore n links): degree-2 topology, sparse demand universe, small
// per-link COPs. It scales the Follow-the-Sun negotiation parametrically —
// RingParams(200) is the 200-link scenario the cluster benchmarks run.
func RingParams(n int) Params {
	p := DefaultParams(n)
	p.Degree = 2 // the ring itself; no random chords
	p.DemandMax = 5
	p.SolverMaxNodes = 4000
	p.SparseDemands = true
	return p
}

// CostPoint is one sample of the Figure 4 series.
type CostPoint struct {
	T    time.Duration // virtual time
	Cost float64       // normalized total cost, percent of initial
}

// Result reports the outcome of one run.
type Result struct {
	Points          []CostPoint
	InitialCost     float64
	FinalCost       float64
	ReductionPct    float64
	ConvergenceTime time.Duration
	Rounds          int
	TotalMigrations int64 // total |VM| moved (for the c3 policy comparison)
	PerNodeKBps     float64
	PerLinkSolves   int
	MeanSolveTime   time.Duration
	// SolverNodes sums the search nodes over every per-link solve; the
	// cluster equivalence suite compares it exactly against recorded runs.
	SolverNodes int64
	// WireStats holds each data center's transport counters at the end of
	// the run (the Figure 5 per-node overhead, unnormalized).
	WireStats map[string]transport.Stats
}

type runner struct {
	p      Params
	rng    *rand.Rand
	rt     *cluster.Runtime
	names  []string
	links  [][2]string // undirected, stored with larger name first (initiator)
	adj    map[string][]string
	comm   map[string]map[string]int64
	mig    map[string]int64 // "x|y" -> cost
	migSum int64            // accumulated migration cost
	moved  int64
	solves int
	snodes int64
	stime  time.Duration
}

// matchRound selects the links negotiating this round — each node
// initiates or answers at most one negotiation — and appends the rest to
// left. The matched links are pairwise node-disjoint, which is what lets
// the cluster runtime execute a whole round concurrently.
func matchRound(pending [][2]string, left *[][2]string) [][2]string {
	busy := map[string]bool{}
	var matched [][2]string
	for _, lk := range pending {
		x, y := lk[0], lk[1]
		if busy[x] || busy[y] {
			*left = append(*left, lk)
			continue
		}
		busy[x], busy[y] = true, true
		matched = append(matched, lk)
	}
	return matched
}

// finalize fills the summary metrics once the last round has settled.
func (r *runner) finalize(res *Result, rounds int) {
	res.Rounds = rounds
	res.FinalCost = 100 * r.totalCost() / res.InitialCost
	res.ReductionPct = 100 - res.FinalCost
	res.ConvergenceTime = r.rt.Now()
	res.TotalMigrations = r.moved
	res.PerLinkSolves = r.solves
	res.SolverNodes = r.snodes
	if r.solves > 0 {
		res.MeanSolveTime = r.stime / time.Duration(r.solves)
	}
	res.WireStats = map[string]transport.Stats{}
	secs := r.rt.Now().Seconds()
	total := 0.0
	for _, name := range r.names {
		st := r.rt.Transport().NodeStats(name)
		res.WireStats[name] = st
		total += float64(st.BytesSent)
	}
	if secs > 0 {
		res.PerNodeKBps = total / secs / float64(len(r.names)) / 1024
	}
}

// setup builds the topology, the cost matrices, and one Cologne instance
// per data center.
func (r *runner) setup() error {
	p := r.p
	for i := 0; i < p.NumDCs; i++ {
		r.names = append(r.names, fmt.Sprintf("dc%02d", i))
	}
	// Connected random topology with average degree ~p.Degree: a ring plus
	// random chords.
	adj := map[string]map[string]bool{}
	addLink := func(a, b string) {
		if a == b || adj[a][b] {
			return
		}
		if adj[a] == nil {
			adj[a] = map[string]bool{}
		}
		if adj[b] == nil {
			adj[b] = map[string]bool{}
		}
		adj[a][b], adj[b][a] = true, true
		hi, lo := a, b
		if hi < lo {
			hi, lo = lo, hi
		}
		r.links = append(r.links, [2]string{hi, lo})
	}
	n := len(r.names)
	for i := 0; i < n && n > 1; i++ {
		addLink(r.names[i], r.names[(i+1)%n])
	}
	wantLinks := p.Degree * n / 2
	if max := n * (n - 1) / 2; wantLinks > max {
		wantLinks = max
	}
	for attempts := 0; len(r.links) < wantLinks && attempts < 100*n*n; attempts++ {
		a, b := r.names[r.rng.Intn(n)], r.names[r.rng.Intn(n)]
		if a != b && !adj[a][b] {
			addLink(a, b)
		}
	}
	sort.Slice(r.links, func(i, j int) bool {
		if r.links[i][0] != r.links[j][0] {
			return r.links[i][0] < r.links[j][0]
		}
		return r.links[i][1] < r.links[j][1]
	})
	r.adj = map[string][]string{}
	for _, name := range r.names {
		var nbrs []string
		for n := range adj[name] {
			nbrs = append(nbrs, n)
		}
		sort.Strings(nbrs)
		r.adj[name] = nbrs
	}

	entry := programs.FollowSunDistributed(r.capOrHuge())
	ares := entry.Analyze()
	mkConfig := func() core.Config {
		cfg := entry.Config
		cfg.SolverMaxNodes = r.p.SolverMaxNodes
		cfg.SolverMaxTime = r.p.SolverMaxTime
		cfg.SolverPropagate = true
		cfg.SolverIncremental = p.SolverIncremental
		return cfg
	}
	specs := make([]cluster.NodeSpec, len(r.names))
	for i, name := range r.names {
		specs[i] = cluster.NodeSpec{Addr: name, Program: ares, Config: mkConfig()}
	}
	if err := r.rt.SpawnAll(specs); err != nil {
		return err
	}
	// Facts. With SparseDemands, each center hosts allocations only for
	// itself and its direct neighbors (hostSet) and negotiates only its own
	// demand (the dc rows); the dense default is the paper's all-pairs
	// universe.
	for _, x := range r.names {
		node := r.rt.Node(x)
		r.comm[x] = map[string]int64{}
		for v := -p.DemandMax; v <= p.DemandMax; v++ {
			if err := node.Insert("migRange", colog.IntVal(v)); err != nil {
				return err
			}
		}
		if err := node.Insert("opCost", colog.StringVal(x), colog.IntVal(p.OpCost)); err != nil {
			return err
		}
		if err := node.Insert("resource", colog.StringVal(x), colog.IntVal(p.Capacity)); err != nil {
			return err
		}
		hostSet := r.names
		if p.SparseDemands {
			hostSet = append([]string{x}, r.adj[x]...)
			sort.Strings(hostSet)
		}
		for _, d := range hostSet {
			cc := int64(0)
			if d != x {
				cc = p.CommCostMin + r.rng.Int63n(p.CommCostMax-p.CommCostMin+1)
			}
			r.comm[x][d] = cc
			if err := node.Insert("commCost", colog.StringVal(x), colog.StringVal(d), colog.IntVal(cc)); err != nil {
				return err
			}
			if !p.SparseDemands || d == x {
				if err := node.Insert("dc", colog.StringVal(x), colog.StringVal(d)); err != nil {
					return err
				}
			}
			alloc := r.rng.Int63n(p.DemandMax + 1)
			if err := node.Insert("curVm", colog.StringVal(x), colog.StringVal(d), colog.IntVal(alloc)); err != nil {
				return err
			}
		}
	}
	for _, lk := range r.links {
		x, y := lk[0], lk[1]
		mc := p.MigCostMin + r.rng.Int63n(p.MigCostMax-p.MigCostMin+1)
		r.mig[x+"|"+y], r.mig[y+"|"+x] = mc, mc
		for _, pair := range [][2]string{{x, y}, {y, x}} {
			node := r.rt.Node(pair[0])
			if err := node.Insert("link", colog.StringVal(pair[0]), colog.StringVal(pair[1])); err != nil {
				return err
			}
			if err := node.Insert("migCost", colog.StringVal(pair[0]), colog.StringVal(pair[1]), colog.IntVal(mc)); err != nil {
				return err
			}
		}
	}
	// Let the shipping rules replicate initial state.
	r.rt.Advance(time.Second)
	return nil
}

func (r *runner) capOrHuge() int64 {
	if r.p.MaxMigrates > 0 {
		return r.p.MaxMigrates
	}
	return 1 << 30
}

// negotiateSolve does the node-local part of one negotiation at the
// initiator (the larger address, per the paper's protocol footnote). It
// touches only node x, so negotiations of node-disjoint links can run
// concurrently under the cluster runtime.
func (r *runner) negotiateSolve(x, y string) (*core.SolveResult, time.Duration, error) {
	node := r.rt.Node(x)
	if err := node.Insert("setLink", colog.StringVal(x), colog.StringVal(y)); err != nil {
		return nil, 0, err
	}
	start := time.Now()
	sres, err := node.Solve(core.SolveOptions{
		// Warm start at "no migration" and explore small moves first: the
		// branching heuristic Gecode users would pick for this model.
		Hint: func(pred string, vals []colog.Value) (int64, bool) { return 0, true },
		ValueOrder: func(v *solver.Var, vals []int64) []int64 {
			out := append([]int64(nil), vals...)
			sort.Slice(out, func(i, j int) bool {
				ai, aj := out[i], out[j]
				if ai < 0 {
					ai = -ai
				}
				if aj < 0 {
					aj = -aj
				}
				if ai != aj {
					return ai < aj
				}
				return out[i] > out[j]
			})
			return out
		},
	})
	elapsed := time.Since(start)
	if err != nil {
		return nil, 0, fmt.Errorf("followsun: negotiating %s-%s: %w", x, y, err)
	}
	// Negotiation done: retract the link selection so the next one starts
	// from a clean toMigVm table.
	if err := node.Delete("setLink", colog.StringVal(x), colog.StringVal(y)); err != nil {
		return nil, 0, err
	}
	return sres, elapsed, nil
}

// fold accumulates one negotiation's outcome into the run totals. Unlike
// negotiateSolve it mutates shared state, so cluster rounds call it
// sequentially in link order after the epoch barrier.
func (r *runner) fold(x, y string, sres *core.SolveResult, elapsed time.Duration) {
	r.stime += elapsed
	r.solves++
	r.snodes += sres.Stats.Nodes
	if !sres.Feasible() {
		return
	}
	for _, a := range sres.Assignments {
		if a.Pred != "migVm" {
			continue
		}
		moved := a.Vals[3].I
		if moved < 0 {
			moved = -moved
		}
		r.moved += moved
		r.migSum += moved * r.mig[x+"|"+y]
	}
}

// totalCost is the global objective (equation 1): operating plus
// communication cost of the current allocation, plus accumulated migration
// cost.
func (r *runner) totalCost() float64 {
	total := float64(r.migSum)
	for _, x := range r.names {
		node := r.rt.Node(x)
		for _, row := range node.Rows("curVm") {
			if row[0].S != x {
				continue
			}
			alloc := float64(row[2].Num())
			total += alloc * float64(r.p.OpCost+r.comm[x][row[1].S])
		}
	}
	return total
}
