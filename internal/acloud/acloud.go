// Package acloud implements the paper's first use case (sections 3.1.1,
// 4.2, 6.2): trace-driven VM load balancing across data centers. It replays
// the synthetic hosting trace through the workload generator (VM spawn /
// stop / start on CPU thresholds) and compares four policies — the Colog
// ACloud COP, its migration-capped ACloud(M) variant, and the paper's two
// strawmen (Default: never migrate; Heuristic: threshold-based most-to-least
// loaded moves) — reproducing Figures 2 and 3.
package acloud

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"time"

	"repro/internal/colog"
	"repro/internal/core"
	"repro/internal/dctrace"
	"repro/internal/programs"
)

// Policy selects the load-balancing strategy.
type Policy int

const (
	// Default never migrates after initial placement.
	Default Policy = iota
	// Heuristic migrates from the most- to the least-loaded host until the
	// most-to-least ratio drops below Params.HeuristicRatio (paper: 1.05).
	Heuristic
	// ACloud runs the Colog COP every interval.
	ACloud
	// ACloudM is ACloud with the per-data-center migration cap (d5/d6/c3).
	ACloudM
)

// String names the policy as in the paper's figures.
func (p Policy) String() string {
	switch p {
	case Heuristic:
		return "Heuristic"
	case ACloud:
		return "ACloud"
	case ACloudM:
		return "ACloud (M)"
	default:
		return "Default"
	}
}

// Params configure one experiment run.
type Params struct {
	DCs        int   // data centers (paper: 3)
	HostsPerDC int   // VM-hosting machines per DC (paper: 4 + 1 storage)
	VMsPerHost int   // preallocated VMs per host (paper: 80)
	HostMemMB  int64 // physical memory per host (paper: 32 GB)

	Hours           float64 // experiment duration (paper: 4h)
	IntervalMinutes int     // COP period (paper: 10 min)

	SpawnThreshold float64 // per-VM CPU% triggering power-on (paper: 80)
	StopThreshold  float64 // per-VM CPU% triggering power-off (paper: 20)
	CPUFloor       int64   // vm-table filter (paper: 20)

	MaxMigrates    int64   // ACloud(M) cap per DC per interval (paper: 3)
	HeuristicRatio float64 // Heuristic stop ratio (paper: 1.05)

	SolverMaxNodes int64
	SolverMaxTime  time.Duration
	// SolverIncremental enables incremental re-grounding with solver-model
	// patching between ticks (see core.Config).
	SolverIncremental bool

	Seed  int64
	Trace dctrace.Params
}

// DefaultParams returns the paper-scale experiment (~960 VMs).
func DefaultParams() Params {
	return Params{
		DCs: 3, HostsPerDC: 4, VMsPerHost: 80, HostMemMB: 32 * 1024,
		Hours: 4, IntervalMinutes: 10,
		SpawnThreshold: 80, StopThreshold: 20, CPUFloor: 20,
		MaxMigrates: 3, HeuristicRatio: 1.05,
		SolverMaxNodes: 20000, SolverMaxTime: 10 * time.Second,
		SolverIncremental: true,
		Seed:              1, Trace: dctrace.DefaultParams(),
	}
}

// BenchParams returns a scaled-down configuration for the benchmark harness
// (same structure, ~240 VMs, shorter horizon).
func BenchParams() Params {
	p := DefaultParams()
	p.VMsPerHost = 20
	p.Hours = 2
	p.SolverMaxNodes = 4000
	p.SolverMaxTime = time.Second
	p.Trace.Customers = 60
	p.Trace.TotalPPs = 400
	return p
}

// Result holds the time series the paper plots.
type Result struct {
	Policy Policy
	// Times are interval end offsets.
	Times []time.Duration
	// AvgStdev is the average per-DC CPU standard deviation (Figure 2).
	AvgStdev []float64
	// Migrations is the number of VM migrations per interval (Figure 3).
	Migrations []int

	MeanStdev      float64
	MeanMigrations float64
}

type vmState struct {
	id       int
	customer int
	dc       int
	host     int // index within its DC
	cpu      float64
	memMB    int64
	on       bool
}

type cluster struct {
	p     Params
	tr    *dctrace.Trace
	rng   *rand.Rand
	vms   []vmState
	perDC [][]int // vm ids per DC
	// customer -> vm ids
	byCustomer map[int][]int
}

func newCluster(p Params) *cluster {
	c := &cluster{
		p:          p,
		tr:         dctrace.New(p.Trace),
		rng:        rand.New(rand.NewSource(p.Seed)),
		byCustomer: map[int][]int{},
		perDC:      make([][]int, p.DCs),
	}
	id := 0
	for dc := 0; dc < p.DCs; dc++ {
		for h := 0; h < p.HostsPerDC; h++ {
			for v := 0; v < p.VMsPerHost; v++ {
				cust := id % c.tr.Customers()
				c.vms = append(c.vms, vmState{
					id: id, customer: cust, dc: dc, host: h,
					memMB: c.tr.MemMB(cust), on: id%2 == 0,
				})
				c.perDC[dc] = append(c.perDC[dc], id)
				c.byCustomer[cust] = append(c.byCustomer[cust], id)
				id++
			}
		}
	}
	c.updateDemand(0)
	return c
}

// updateDemand replays the trace: per-customer demand is split over active
// VMs; the workload generator powers VMs on and off at the thresholds.
func (c *cluster) updateDemand(sample int) {
	for cust, ids := range c.byCustomer {
		demand := c.tr.CPUPercent(cust, sample) * float64(len(ids)) * 0.6
		active := 0
		for _, id := range ids {
			if c.vms[id].on {
				active++
			}
		}
		if active == 0 {
			c.vms[ids[0]].on = true
			active = 1
		}
		perVM := demand / float64(active)
		// VM spawn: clone one more when overloaded.
		if perVM > c.p.SpawnThreshold && active < len(ids) {
			for _, id := range ids {
				if !c.vms[id].on {
					c.vms[id].on = true
					active++
					break
				}
			}
		}
		// VM stop: power one off when underloaded.
		if perVM < c.p.StopThreshold && active > 1 {
			for _, id := range ids {
				if c.vms[id].on {
					c.vms[id].on = false
					active--
					break
				}
			}
		}
		perVM = demand / float64(active)
		if perVM > 100 {
			perVM = 100
		}
		for _, id := range ids {
			if c.vms[id].on {
				c.vms[id].cpu = perVM
			} else {
				c.vms[id].cpu = 0
			}
		}
	}
}

// hostLoads returns the per-host aggregate CPU of one DC.
func (c *cluster) hostLoads(dc int) []float64 {
	loads := make([]float64, c.p.HostsPerDC)
	for _, id := range c.perDC[dc] {
		vm := &c.vms[id]
		if vm.on {
			loads[vm.host] += vm.cpu
		}
	}
	return loads
}

// avgStdev is the Figure 2 metric: per-DC host-CPU standard deviation,
// averaged over the data centers.
func (c *cluster) avgStdev() float64 {
	total := 0.0
	for dc := 0; dc < c.p.DCs; dc++ {
		total += stddev(c.hostLoads(dc))
	}
	return total / float64(c.p.DCs)
}

func stddev(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	mean := 0.0
	for _, x := range xs {
		mean += x
	}
	mean /= float64(len(xs))
	v := 0.0
	for _, x := range xs {
		d := x - mean
		v += d * d
	}
	return math.Sqrt(v / float64(len(xs)))
}

// heuristicBalance implements the paper's strawman: repeatedly migrate a VM
// from the most- to the least-loaded host until the ratio is below K.
func (c *cluster) heuristicBalance() int {
	migs := 0
	for dc := 0; dc < c.p.DCs; dc++ {
		for iter := 0; iter < 100; iter++ {
			loads := c.hostLoads(dc)
			maxH, minH := 0, 0
			for h := range loads {
				if loads[h] > loads[maxH] {
					maxH = h
				}
				if loads[h] < loads[minH] {
					minH = h
				}
			}
			if loads[minH] <= 0 {
				loads[minH] = 1e-9
			}
			if loads[maxH]/loads[minH] <= c.p.HeuristicRatio {
				break
			}
			// Move the largest VM that still improves the imbalance.
			gap := loads[maxH] - loads[minH]
			best := -1
			for _, id := range c.perDC[dc] {
				vm := &c.vms[id]
				if !vm.on || vm.host != maxH || vm.cpu <= 0 || vm.cpu >= gap {
					continue
				}
				if best < 0 || vm.cpu > c.vms[best].cpu {
					best = id
				}
			}
			if best < 0 {
				break
			}
			c.vms[best].host = minH
			migs++
		}
	}
	return migs
}

// nodeConfig assembles one data center's engine configuration.
func (c *cluster) nodeConfig(entry programs.Entry) core.Config {
	cfg := entry.Config
	cfg.SolverMaxNodes = c.p.SolverMaxNodes
	cfg.SolverMaxTime = c.p.SolverMaxTime
	cfg.SolverPropagate = true
	cfg.SolverIncremental = c.p.SolverIncremental
	cfg.Keys = map[string][]int{
		"vmRaw":  {0},
		"origin": {0},
		// vm is functionally keyed by the VM id (derived 1:1 from the
		// keyed vmRaw); declaring the key turns a CPU reading change
		// into a keyed replace, which the incremental grounder can
		// absorb by patching constants instead of re-grounding.
		"vm": {0},
	}
	return cfg
}

// seedDC inserts one data center's host catalog.
func (c *cluster) seedDC(n *core.Node) error {
	for h := 0; h < c.p.HostsPerDC; h++ {
		hid := hostName(h)
		if err := n.Insert("host", colog.StringVal(hid), colog.IntVal(0), colog.IntVal(0)); err != nil {
			return err
		}
		if err := n.Insert("hostMemThres", colog.StringVal(hid), colog.IntVal(c.p.HostMemMB)); err != nil {
			return err
		}
	}
	return nil
}

func hostName(h int) string { return fmt.Sprintf("h%d", h) }
func vmName(id int) string  { return fmt.Sprintf("vm%d", id) }

// copBalanceDC refreshes one data center's COP inputs, solves, and applies
// the placement. It touches only that DC's node and VM entries, so the
// cluster runtime runs the per-DC balances concurrently.
func (c *cluster) copBalanceDC(n *core.Node, dc int, pol Policy) (int, *core.SolveResult, error) {
	// Refresh vmRaw and origin (keyed tables: inserts replace).
	live := map[int]bool{}
	for _, id := range c.perDC[dc] {
		vm := &c.vms[id]
		cpu := int64(math.Round(vm.cpu))
		if !vm.on || cpu <= c.p.CPUFloor {
			// Below the filter: drop from the COP if present.
			n.Delete("vmRaw", colog.StringVal(vmName(id)), colog.IntVal(prevCPU(n, id)), colog.IntVal(vm.memMB))
			continue
		}
		live[id] = true
		if err := n.Insert("vmRaw", colog.StringVal(vmName(id)), colog.IntVal(cpu), colog.IntVal(vm.memMB)); err != nil {
			return 0, nil, err
		}
		if pol == ACloudM {
			// origin feeds the migration-count rules d5/d6.
			if err := n.Insert("origin", colog.StringVal(vmName(id)), colog.StringVal(hostName(vm.host))); err != nil {
				return 0, nil, err
			}
		}
	}
	if len(live) == 0 {
		return 0, nil, nil
	}
	// Warm start: LPT-balanced placement for ACloud, the current
	// placement for ACloud(M) (which must respect the migration cap).
	hint := c.buildHint(dc, live, pol)
	sres, err := n.Solve(core.SolveOptions{
		Hint: func(pred string, vals []colog.Value) (int64, bool) {
			if pred != "assign" {
				return 0, false
			}
			if hint[vals[0].S] == vals[1].S {
				return 1, true
			}
			return 0, true
		},
	})
	if err != nil {
		return 0, nil, err
	}
	if !sres.Feasible() {
		return 0, sres, nil // keep current placement this interval
	}
	migs := 0
	for _, a := range sres.Assignments {
		if a.Pred != "assign" || a.Vals[2].I != 1 {
			continue
		}
		id := 0
		fmt.Sscanf(a.Vals[0].S, "vm%d", &id)
		h := 0
		fmt.Sscanf(a.Vals[1].S, "h%d", &h)
		if c.vms[id].host != h {
			c.vms[id].host = h
			migs++
		}
	}
	return migs, sres, nil
}

// prevCPU finds the CPU value currently stored for a VM so keyed deletion
// can name the full row.
func prevCPU(n *core.Node, id int) int64 {
	for _, row := range n.Rows("vmRaw") {
		if row[0].S == vmName(id) {
			return row[1].I
		}
	}
	return 0
}

// buildHint computes the warm-start placement: longest-processing-time
// (LPT) balancing for the unconstrained policy, greedy capped moves for
// ACloud(M).
func (c *cluster) buildHint(dc int, live map[int]bool, pol Policy) map[string]string {
	ids := make([]int, 0, len(live))
	for id := range live {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(a, b int) bool {
		if c.vms[ids[a]].cpu != c.vms[ids[b]].cpu {
			return c.vms[ids[a]].cpu > c.vms[ids[b]].cpu
		}
		return ids[a] < ids[b]
	})
	hint := map[string]string{}
	if pol == ACloud {
		loads := make([]float64, c.p.HostsPerDC)
		for _, id := range ids {
			h := 0
			for k := range loads {
				if loads[k] < loads[h] {
					h = k
				}
			}
			loads[h] += c.vms[id].cpu
			hint[vmName(id)] = hostName(h)
		}
		return hint
	}
	// ACloud(M): start from the current placement and apply up to
	// MaxMigrates best moves.
	loads := c.hostLoads(dc)
	placement := map[int]int{}
	for _, id := range ids {
		placement[id] = c.vms[id].host
	}
	for m := int64(0); m < c.p.MaxMigrates; m++ {
		maxH, minH := 0, 0
		for h := range loads {
			if loads[h] > loads[maxH] {
				maxH = h
			}
			if loads[h] < loads[minH] {
				minH = h
			}
		}
		gap := loads[maxH] - loads[minH]
		best := -1
		for _, id := range ids {
			if placement[id] != maxH {
				continue
			}
			cpu := c.vms[id].cpu
			if cpu < gap && (best < 0 || cpu > c.vms[best].cpu) {
				best = id
			}
		}
		if best < 0 {
			break
		}
		placement[best] = minH
		loads[maxH] -= c.vms[best].cpu
		loads[minH] += c.vms[best].cpu
	}
	for id, h := range placement {
		hint[vmName(id)] = hostName(h)
	}
	return hint
}
