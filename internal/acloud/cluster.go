package acloud

import (
	"fmt"
	"time"

	clusterpkg "repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/dctrace"
	"repro/internal/programs"
)

// ScaledParams returns a generated workload of dcs data centers for the
// cluster runtime: the benchmark-scale per-DC shape replicated across as
// many centers as asked for. ScaledParams(24) runs 24 independent per-DC
// COPs per interval on the worker pool.
func ScaledParams(dcs int) Params {
	p := BenchParams()
	p.DCs = dcs
	p.VMsPerHost = 10
	p.Hours = 1
	p.SolverMaxNodes = 2500
	p.SolverMaxTime = 0 // node budget only: deterministic at any worker count
	p.Trace.Customers = 30
	p.Trace.TotalPPs = 200
	return p
}

// RunCluster executes the trace-driven experiment for one policy; it is the
// package's only experiment runner. The COP policies solve their per-DC COPs
// concurrently on the cluster runtime, one epoch item per data center; Default
// and Heuristic need no Colog instance and run without one. The data centers
// are independent (the ACloud program has no distributed rules), so the series
// are the same at any worker count. TestClusterEquivalence pins them to
// fingerprints recorded from the sequential loop it replaced.
func RunCluster(p Params, pol Policy, o clusterpkg.Options) (*Result, error) {
	c := newCluster(p)
	intervals := int(p.Hours * 60 / float64(p.IntervalMinutes))
	res := &Result{Policy: pol}

	var rt *clusterpkg.Runtime
	if pol == ACloud || pol == ACloudM {
		rt = clusterpkg.New(o)
		defer rt.Close()
		entry := programs.ACloud(pol == ACloudM, p.MaxMigrates)
		ares := entry.Analyze()
		specs := make([]clusterpkg.NodeSpec, p.DCs)
		for dc := 0; dc < p.DCs; dc++ {
			specs[dc] = clusterpkg.NodeSpec{
				Addr:    fmt.Sprintf("dc%d", dc),
				Program: ares,
				Config:  c.nodeConfig(entry),
				Seed:    c.seedDC,
			}
		}
		if err := rt.SpawnAll(specs); err != nil {
			return nil, err
		}
	}

	for iv := 1; iv <= intervals; iv++ {
		now := time.Duration(iv*p.IntervalMinutes) * time.Minute
		sample := int(now / dctrace.SampleInterval)
		c.updateDemand(sample)

		migs := 0
		switch pol {
		case Default:
			// no migration
		case Heuristic:
			migs = c.heuristicBalance()
		case ACloud, ACloudM:
			items := make([]clusterpkg.Item, p.DCs)
			perDC := make([]int, p.DCs)
			for dc := 0; dc < p.DCs; dc++ {
				dc := dc
				addr := fmt.Sprintf("dc%d", dc)
				items[dc] = clusterpkg.Item{
					Label: "balance " + addr,
					Nodes: []string{addr},
					Run: func() (*core.SolveResult, error) {
						migs, sres, err := c.copBalanceDC(rt.Node(addr), dc, pol)
						perDC[dc] = migs
						return sres, err
					},
				}
			}
			if _, err := rt.RunEpoch(items); err != nil {
				return nil, err
			}
			for _, m := range perDC {
				migs += m
			}
		}

		res.Times = append(res.Times, now)
		res.AvgStdev = append(res.AvgStdev, c.avgStdev())
		res.Migrations = append(res.Migrations, migs)
	}
	for i := range res.AvgStdev {
		res.MeanStdev += res.AvgStdev[i]
		res.MeanMigrations += float64(res.Migrations[i])
	}
	n := float64(len(res.AvgStdev))
	if n > 0 {
		res.MeanStdev /= n
		res.MeanMigrations /= n
	}
	return res, nil
}
