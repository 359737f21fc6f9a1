package acloud

import (
	"crypto/sha256"
	"fmt"
	"testing"

	clusterpkg "repro/internal/cluster"
)

func clusterTestParams() Params {
	p := BenchParams()
	p.VMsPerHost = 6
	p.Hours = 1
	p.SolverMaxNodes = 1500
	p.SolverMaxTime = 0 // node budget only: deterministic
	p.Trace.Customers = 20
	p.Trace.TotalPPs = 150
	return p
}

// clusterTrace holds, per COP policy, the fingerprint of the
// clusterTestParams run. Both were recorded from the sequential Run loop
// before it was deleted; RunCluster matched them at every worker count at
// that point.
var clusterTrace = map[Policy]string{
	ACloud:  "intervals=6 stdev=6.905464855658148 mig=38.833333333333336 series=9bc9f976cdd49cd36cf7734603d1acab0f38aacc1070746383ca4ff14fe8b14b",
	ACloudM: "intervals=6 stdev=6.4463500025268035 mig=7.333333333333333 series=f887df988db7082c528960d4391a44fbdd974bfd10a569f4a70decaf5a70f407",
}

// clusterFingerprint renders everything TestClusterEquivalence compares:
// the per-interval stdev and migration series, exactly (%v prints the
// shortest float64 that round-trips).
func clusterFingerprint(res *Result) string {
	h := sha256.New()
	for i := range res.AvgStdev {
		fmt.Fprintf(h, "%v %d\n", res.AvgStdev[i], res.Migrations[i])
	}
	return fmt.Sprintf("intervals=%d stdev=%v mig=%v series=%x", len(res.AvgStdev), res.MeanStdev, res.MeanMigrations, h.Sum(nil))
}

// TestClusterEquivalence: concurrent per-DC balancing must reproduce the
// recorded sequential series exactly — identical stdev and migration
// series — for both COP policies at any worker count.
func TestClusterEquivalence(t *testing.T) {
	p := clusterTestParams()
	for _, pol := range []Policy{ACloud, ACloudM} {
		for _, workers := range []int{1, 4} {
			res, err := RunCluster(p, pol, clusterpkg.Options{Workers: workers})
			if err != nil {
				t.Fatal(err)
			}
			if got := clusterFingerprint(res); got != clusterTrace[pol] {
				t.Fatalf("%s workers=%d: run diverged from the recorded sequential trace:\n got  %s\n want %s", pol, workers, got, clusterTrace[pol])
			}
		}
	}
}

// TestScaledParamsRuns: a generated many-DC workload completes under the
// cluster runtime with per-DC work on the pool.
func TestScaledParamsRuns(t *testing.T) {
	p := ScaledParams(8)
	p.Hours = 0.5
	res, err := RunCluster(p, ACloud, clusterpkg.Options{Workers: 8})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.AvgStdev) == 0 {
		t.Fatal("no intervals recorded")
	}
}
