// Command acloud runs the ACloud trace-driven load-balancing experiment
// (section 6.2), printing the Figure 2 series (average per-DC CPU standard
// deviation over time) and the Figure 3 series (VM migrations per interval)
// for the four policies.
//
//	acloud            # scaled-down profile
//	acloud -full      # paper-scale: 3 DCs, 960 VMs, 4 hours
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"repro/internal/acloud"
	"repro/internal/cluster"
	"repro/internal/profiling"
)

func main() {
	var (
		full     = flag.Bool("full", false, "paper-scale experiment (slower)")
		hours    = flag.Float64("hours", 0, "override experiment duration")
		budget   = flag.Duration("solver-max-time", 0, "override per-COP time budget")
		maxNodes = flag.Int64("solver-max-nodes", 0, "override per-COP node budget")
		seed     = flag.Int64("seed", 1, "workload seed")
		profile  = flag.String("profile", "", "write CPU/heap profiles to <prefix>.cpu.pprof / <prefix>.heap.pprof")
	)
	flag.Parse()

	stopProf, err := profiling.Start(*profile)
	if err != nil {
		fmt.Fprintf(os.Stderr, "acloud: %v\n", err)
		os.Exit(1)
	}
	defer func() {
		if err := stopProf(); err != nil {
			fmt.Fprintf(os.Stderr, "acloud: %v\n", err)
		}
	}()

	p := acloud.BenchParams()
	if *full {
		p = acloud.DefaultParams()
	}
	if *hours > 0 {
		p.Hours = *hours
	}
	if *budget > 0 {
		p.SolverMaxTime = *budget
	}
	if *maxNodes > 0 {
		p.SolverMaxNodes = *maxNodes
	}
	p.Seed = *seed
	p.Trace.Seed = *seed

	policies := []acloud.Policy{acloud.Default, acloud.Heuristic, acloud.ACloud, acloud.ACloudM}
	results := make([]*acloud.Result, len(policies))
	for i, pol := range policies {
		start := time.Now()
		res, err := acloud.RunCluster(p, pol, cluster.Options{})
		if err != nil {
			fmt.Fprintf(os.Stderr, "acloud: %s: %v\n", pol, err)
			os.Exit(1)
		}
		results[i] = res
		fmt.Fprintf(os.Stderr, "ran %-12s in %v\n", pol, time.Since(start).Round(time.Millisecond))
	}

	fmt.Println("# Figure 2: average CPU standard deviation of the data centers")
	fmt.Printf("%-8s", "time(h)")
	for _, r := range results {
		fmt.Printf(" %12s", r.Policy)
	}
	fmt.Println()
	for i := range results[0].Times {
		fmt.Printf("%-8.2f", results[0].Times[i].Hours())
		for _, r := range results {
			fmt.Printf(" %12.1f", r.AvgStdev[i])
		}
		fmt.Println()
	}

	fmt.Println()
	fmt.Println("# Figure 3: number of VM migrations per interval")
	fmt.Printf("%-8s", "time(h)")
	for _, r := range results {
		fmt.Printf(" %12s", r.Policy)
	}
	fmt.Println()
	for i := range results[0].Times {
		fmt.Printf("%-8.2f", results[0].Times[i].Hours())
		for _, r := range results {
			fmt.Printf(" %12d", r.Migrations[i])
		}
		fmt.Println()
	}

	fmt.Println()
	fmt.Println("# Summary")
	base := results[0].MeanStdev
	for _, r := range results {
		fmt.Printf("%-12s mean stddev %7.1f (%5.1f%% of Default)  mean migrations/interval %5.1f\n",
			r.Policy, r.MeanStdev, 100*r.MeanStdev/base, r.MeanMigrations)
	}
}
