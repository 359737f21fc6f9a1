// Command wireless runs the channel-selection experiments (section 6.4):
// Figure 6 (aggregate throughput vs offered rate for the five protocols on
// the 30-node grid) and Figure 7 (policy variants of the cross-layer
// protocol: restricted channels and the one-hop interference model).
//
//	wireless            # Figure 6
//	wireless -fig7      # Figure 7
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"repro/internal/cluster"
	"repro/internal/profiling"
	"repro/internal/wireless"
)

func main() {
	var (
		fig7    = flag.Bool("fig7", false, "run the Figure 7 policy variants instead of Figure 6")
		seed    = flag.Int64("seed", 7, "flow/topology seed")
		nodes   = flag.Int64("solver-max-nodes", 20000, "per-COP search node budget")
		profile = flag.String("profile", "", "write CPU/heap profiles to <prefix>.cpu.pprof / <prefix>.heap.pprof")
	)
	flag.Parse()

	stopProf, err := profiling.Start(*profile)
	if err != nil {
		fmt.Fprintf(os.Stderr, "wireless: %v\n", err)
		os.Exit(1)
	}
	defer func() {
		if err := stopProf(); err != nil {
			fmt.Fprintf(os.Stderr, "wireless: %v\n", err)
		}
	}()

	p := wireless.DefaultParams()
	p.Seed = *seed
	p.SolverMaxNodes = *nodes

	if *fig7 {
		runFig7(p)
		return
	}

	protocols := []wireless.Protocol{
		wireless.CrossLayer, wireless.Distributed, wireless.Centralized,
		wireless.IdenticalCh, wireless.OneInterface,
	}
	results := make([]*wireless.Result, len(protocols))
	for i, proto := range protocols {
		start := time.Now()
		res, err := wireless.RunCluster(p, proto, cluster.Options{})
		if err != nil {
			fmt.Fprintf(os.Stderr, "wireless: %s: %v\n", proto, err)
			os.Exit(1)
		}
		results[i] = res
		fmt.Fprintf(os.Stderr, "ran %-13s in %v (interference pairs: %d)\n",
			proto, time.Since(start).Round(time.Millisecond), res.Interference)
	}

	fmt.Println("# Figure 6: aggregate throughput, 30-node grid")
	fmt.Printf("%-14s", "offered(Mbps)")
	for _, r := range results {
		fmt.Printf(" %13s", r.Protocol)
	}
	fmt.Println()
	for i := range results[0].OfferedMbps {
		fmt.Printf("%-14.1f", results[0].OfferedMbps[i])
		for _, r := range results {
			fmt.Printf(" %13.2f", r.ThroughputMbps[i])
		}
		fmt.Println()
	}
	fmt.Println()
	fmt.Println("# Overheads")
	for _, r := range results {
		fmt.Printf("%-13s convergence %8s  per-node %6.2f KB/s\n",
			r.Protocol, r.Convergence.Round(time.Millisecond), r.PerNodeKBps)
	}
}

func runFig7(p wireless.Params) {
	type variant struct {
		name string
		mut  func(*wireless.Params)
	}
	// The paper's variants stack: "1-hop Interference" applies the one-hop
	// cost model on top of the restricted channel set (section 6.4).
	variants := []variant{
		{"2-hop Interference", func(*wireless.Params) {}},
		{"Restricted Channels", func(q *wireless.Params) { q.RestrictedChannels = true }},
		{"1-hop Interference", func(q *wireless.Params) {
			q.RestrictedChannels = true
			q.TwoHopCost = false
		}},
	}
	var results []*wireless.Result
	for _, v := range variants {
		q := p
		v.mut(&q)
		res, err := wireless.RunCluster(q, wireless.CrossLayer, cluster.Options{})
		if err != nil {
			fmt.Fprintf(os.Stderr, "wireless: %s: %v\n", v.name, err)
			os.Exit(1)
		}
		results = append(results, res)
	}
	fmt.Println("# Figure 7: aggregate throughput under policy variants (Cross-layer)")
	fmt.Printf("%-14s", "offered(Mbps)")
	for i := range variants {
		fmt.Printf(" %20s", variants[i].name)
	}
	fmt.Println()
	for i := range results[0].OfferedMbps {
		fmt.Printf("%-14.1f", results[0].OfferedMbps[i])
		for _, r := range results {
			fmt.Printf(" %20.2f", r.ThroughputMbps[i])
		}
		fmt.Println()
	}
	last := len(results[0].ThroughputMbps) - 1
	base := results[0].ThroughputMbps[last]
	fmt.Println()
	for i, v := range variants {
		th := results[i].ThroughputMbps[last]
		ref, refName := base, "2-hop"
		if i == 2 {
			ref, refName = results[1].ThroughputMbps[last], "Restricted"
		}
		fmt.Printf("%-22s peak %6.2f Mbps (%+.1f%% vs %s)\n", v.name, th, 100*(th-ref)/ref, refName)
	}
}
