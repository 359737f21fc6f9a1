// Command followsun runs the distributed Follow-the-Sun experiment
// (section 6.3): for each network size it prints the Figure 4 series
// (normalized total cost as distributed solving converges) and the Figure 5
// per-node communication overhead.
//
//	followsun                 # sweep 2..10 data centers
//	followsun -dcs 6          # one size
//	followsun -max-migrates 20
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"repro/internal/cluster"
	"repro/internal/followsun"
	"repro/internal/profiling"
)

func main() {
	var (
		dcs      = flag.Int("dcs", 0, "run a single network size instead of the 2..10 sweep")
		capM     = flag.Int64("max-migrates", 0, "per-link migration cap (0 = uncapped)")
		budget   = flag.Int64("solver-max-nodes", 30000, "per-COP search node budget")
		maxTime  = flag.Duration("solver-max-time", 0, "per-COP time budget (0 = node budget only)")
		seed     = flag.Int64("seed", 1, "topology/cost seed")
		demanded = flag.Int64("demand-max", 10, "max initial allocation per demand location")
		profile  = flag.String("profile", "", "write CPU/heap profiles to <prefix>.cpu.pprof / <prefix>.heap.pprof")
	)
	flag.Parse()

	stopProf, err := profiling.Start(*profile)
	if err != nil {
		fmt.Fprintf(os.Stderr, "followsun: %v\n", err)
		os.Exit(1)
	}
	defer func() {
		if err := stopProf(); err != nil {
			fmt.Fprintf(os.Stderr, "followsun: %v\n", err)
		}
	}()

	sizes := []int{2, 4, 6, 8, 10}
	if *dcs > 0 {
		sizes = []int{*dcs}
	}

	type row struct {
		n   int
		res *followsun.Result
	}
	var rows []row
	for _, n := range sizes {
		p := followsun.DefaultParams(n)
		p.MaxMigrates = *capM
		p.SolverMaxNodes = *budget
		p.SolverMaxTime = *maxTime
		p.Seed = *seed
		p.DemandMax = *demanded
		start := time.Now()
		res, err := followsun.RunCluster(p, cluster.Options{})
		if err != nil {
			fmt.Fprintf(os.Stderr, "followsun: %d DCs: %v\n", n, err)
			os.Exit(1)
		}
		rows = append(rows, row{n, res})
		fmt.Fprintf(os.Stderr, "ran %2d data centers in %v (%d negotiations)\n",
			n, time.Since(start).Round(time.Millisecond), res.PerLinkSolves)
	}

	fmt.Println("# Figure 4: normalized total cost as distributed solving converges")
	for _, r := range rows {
		fmt.Printf("## %d data centers (reduction %.1f%%, converged at %.0fs)\n",
			r.n, r.res.ReductionPct, r.res.ConvergenceTime.Seconds())
		fmt.Printf("%-10s %s\n", "time(s)", "cost(%)")
		for _, pt := range r.res.Points {
			fmt.Printf("%-10.1f %.1f\n", pt.T.Seconds(), pt.Cost)
		}
	}

	fmt.Println()
	fmt.Println("# Figure 5: per-node communication overhead")
	fmt.Printf("%-14s %-18s %-12s %-14s\n", "data centers", "KB/s per node", "rounds", "mean solve")
	for _, r := range rows {
		fmt.Printf("%-14d %-18.2f %-12d %-14s\n",
			r.n, r.res.PerNodeKBps, r.res.Rounds, r.res.MeanSolveTime.Round(time.Microsecond))
	}
}
