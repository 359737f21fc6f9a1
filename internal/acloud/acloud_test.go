package acloud

import (
	"crypto/sha256"
	"fmt"
	"testing"
	"time"

	clusterpkg "repro/internal/cluster"
)

// tinyParams keeps unit tests fast.
func tinyParams() Params {
	p := BenchParams()
	p.VMsPerHost = 6
	p.Hours = 0.5 // 3 intervals
	p.SolverMaxNodes = 1500
	p.SolverMaxTime = 200 * time.Millisecond
	p.Trace.Customers = 12
	p.Trace.TotalPPs = 60
	return p
}

func TestRunDefault(t *testing.T) {
	res, err := RunCluster(tinyParams(), Default, clusterpkg.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.AvgStdev) != 3 {
		t.Fatalf("intervals = %d, want 3", len(res.AvgStdev))
	}
	if res.MeanMigrations != 0 {
		t.Fatalf("Default migrated %v times", res.MeanMigrations)
	}
}

func TestRunHeuristicReducesImbalance(t *testing.T) {
	p := tinyParams()
	def, err := RunCluster(p, Default, clusterpkg.Options{})
	if err != nil {
		t.Fatal(err)
	}
	heu, err := RunCluster(p, Heuristic, clusterpkg.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if heu.MeanStdev >= def.MeanStdev {
		t.Fatalf("Heuristic stddev %.2f not below Default %.2f", heu.MeanStdev, def.MeanStdev)
	}
	if heu.MeanMigrations == 0 {
		t.Fatal("Heuristic performed no migrations")
	}
}

func TestRunACloudBeatsDefault(t *testing.T) {
	p := tinyParams()
	def, err := RunCluster(p, Default, clusterpkg.Options{})
	if err != nil {
		t.Fatal(err)
	}
	ac, err := RunCluster(p, ACloud, clusterpkg.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if ac.MeanStdev >= def.MeanStdev {
		t.Fatalf("ACloud stddev %.2f not below Default %.2f", ac.MeanStdev, def.MeanStdev)
	}
}

func TestRunACloudMRespectsCap(t *testing.T) {
	p := tinyParams()
	p.MaxMigrates = 2
	res, err := RunCluster(p, ACloudM, clusterpkg.Options{})
	if err != nil {
		t.Fatal(err)
	}
	cap := int(p.MaxMigrates) * p.DCs
	for i, m := range res.Migrations {
		if m > cap {
			t.Fatalf("interval %d migrated %d VMs, cap %d", i, m, cap)
		}
	}
}

func TestPolicyString(t *testing.T) {
	if Default.String() != "Default" || Heuristic.String() != "Heuristic" ||
		ACloud.String() != "ACloud" || ACloudM.String() != "ACloud (M)" {
		t.Fatal("Policy.String broken")
	}
}

func TestDeterministicRuns(t *testing.T) {
	p := tinyParams()
	a, err := RunCluster(p, Heuristic, clusterpkg.Options{})
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunCluster(p, Heuristic, clusterpkg.Options{})
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.AvgStdev {
		if a.AvgStdev[i] != b.AvgStdev[i] {
			t.Fatalf("run not deterministic at interval %d", i)
		}
	}
}

func TestStddevHelper(t *testing.T) {
	if stddev(nil) != 0 {
		t.Fatal("stddev(nil) != 0")
	}
	if s := stddev([]float64{2, 4}); s != 1 {
		t.Fatalf("stddev({2,4}) = %v", s)
	}
}

// acloudTrace fingerprints the capped ACloud run of TestEngineEquivalence:
// mean stdev and migrations and a sha256 of the per-interval stdev and
// migration series. It was recorded from the legacy forward-checking search
// core before that core was deleted; the event engine matched it at that
// point.
const acloudTrace = "stdev=9.797184191458882 mig=7 series=c526d2e2abb73acf3a516a6f8c4cd0e7da19c5d9372bf38916b4d0ddcd693a70"

// TestEngineEquivalence runs the ACloud policy with only the (deterministic)
// node budget binding and requires the series recorded in acloudTrace: the
// search must take exactly the legacy engine's decisions on this suite.
func TestEngineEquivalence(t *testing.T) {
	p := tinyParams()
	p.SolverMaxTime = 0 // only the deterministic node budget binds
	res, err := RunCluster(p, ACloudM, clusterpkg.Options{})
	if err != nil {
		t.Fatal(err)
	}
	h := sha256.New()
	for i := range res.AvgStdev {
		fmt.Fprintf(h, "%v %d\n", res.AvgStdev[i], res.Migrations[i])
	}
	got := fmt.Sprintf("stdev=%v mig=%v series=%x", res.MeanStdev, res.MeanMigrations, h.Sum(nil))
	if got != acloudTrace {
		t.Fatalf("run diverged from the recorded legacy trace:\n got  %s\n want %s", got, acloudTrace)
	}
}

// TestIncrementalEquivalence runs the capped policy with incremental
// re-grounding against fresh grounding and requires byte-identical series:
// the patched model must be element-for-element the fresh one, tick for
// tick.
func TestIncrementalEquivalence(t *testing.T) {
	run := func(incremental bool) *Result {
		p := tinyParams()
		p.SolverMaxTime = 0 // only the deterministic node budget binds
		p.SolverIncremental = incremental
		res, err := RunCluster(p, ACloudM, clusterpkg.Options{})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	inc, fresh := run(true), run(false)
	if inc.MeanStdev != fresh.MeanStdev || inc.MeanMigrations != fresh.MeanMigrations {
		t.Fatalf("grounding paths diverge: incremental stdev=%v mig=%v, fresh stdev=%v mig=%v",
			inc.MeanStdev, inc.MeanMigrations, fresh.MeanStdev, fresh.MeanMigrations)
	}
	if len(inc.AvgStdev) != len(fresh.AvgStdev) {
		t.Fatalf("series lengths differ: %d vs %d", len(inc.AvgStdev), len(fresh.AvgStdev))
	}
	for i := range inc.AvgStdev {
		if inc.AvgStdev[i] != fresh.AvgStdev[i] || inc.Migrations[i] != fresh.Migrations[i] {
			t.Fatalf("interval %d: stdev %v vs %v, migrations %d vs %d",
				i, inc.AvgStdev[i], fresh.AvgStdev[i], inc.Migrations[i], fresh.Migrations[i])
		}
	}
}
