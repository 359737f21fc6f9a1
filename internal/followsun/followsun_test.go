package followsun

import (
	"crypto/sha256"
	"fmt"
	"testing"
	"time"

	"repro/internal/cluster"
)

func tinyParams(n int) Params {
	p := DefaultParams(n)
	p.DemandMax = 4
	p.SolverMaxNodes = 4000
	p.SolverMaxTime = 300 * time.Millisecond
	return p
}

func TestTwoDCsReduceCost(t *testing.T) {
	res, err := RunCluster(tinyParams(2), cluster.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.FinalCost > 100 {
		t.Fatalf("final cost %.1f%% exceeds initial", res.FinalCost)
	}
	if res.ReductionPct <= 0 {
		t.Fatalf("no cost reduction: %.1f%%", res.ReductionPct)
	}
	if len(res.Points) < 2 {
		t.Fatalf("too few cost points: %d", len(res.Points))
	}
	if res.Points[0].Cost != 100 {
		t.Fatalf("first point not normalized: %v", res.Points[0])
	}
}

func TestCostMonotonicallyImproves(t *testing.T) {
	// Each negotiation only accepts migrations that lower the local
	// objective, so the normalized series should never rise much above its
	// running minimum (small transients allowed while tuples are in
	// flight).
	res, err := RunCluster(tinyParams(4), cluster.Options{})
	if err != nil {
		t.Fatal(err)
	}
	runMin := res.Points[0].Cost
	for _, pt := range res.Points {
		if pt.Cost > runMin+15 {
			t.Fatalf("cost rose to %.1f%% after reaching %.1f%%", pt.Cost, runMin)
		}
		if pt.Cost < runMin {
			runMin = pt.Cost
		}
	}
}

func TestAllLinksNegotiated(t *testing.T) {
	res, err := RunCluster(tinyParams(4), cluster.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Rounds == 0 || res.ConvergenceTime == 0 {
		t.Fatalf("rounds=%d convergence=%v", res.Rounds, res.ConvergenceTime)
	}
	if res.PerLinkSolves < 4*3/2 {
		t.Fatalf("solves = %d, want at least one per link", res.PerLinkSolves)
	}
}

func TestBandwidthMeasured(t *testing.T) {
	res, err := RunCluster(tinyParams(3), cluster.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.PerNodeKBps <= 0 {
		t.Fatalf("PerNodeKBps = %v, want positive", res.PerNodeKBps)
	}
}

func TestMigrationCapReducesMigrations(t *testing.T) {
	p := tinyParams(3)
	free, err := RunCluster(p, cluster.Options{})
	if err != nil {
		t.Fatal(err)
	}
	p.MaxMigrates = 1
	capped, err := RunCluster(p, cluster.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if capped.TotalMigrations > free.TotalMigrations {
		t.Fatalf("cap increased migrations: %d > %d", capped.TotalMigrations, free.TotalMigrations)
	}
}

func TestDeterministicRun(t *testing.T) {
	p := tinyParams(3)
	p.SolverMaxTime = 0 // node budget only, for determinism
	a, err := RunCluster(p, cluster.Options{})
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunCluster(p, cluster.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if a.FinalCost != b.FinalCost || a.TotalMigrations != b.TotalMigrations {
		t.Fatalf("runs differ: %.2f/%d vs %.2f/%d",
			a.FinalCost, a.TotalMigrations, b.FinalCost, b.TotalMigrations)
	}
}

// followsunTrace fingerprints the three-center negotiation of
// TestEngineEquivalence: final cost, migrations, summed search nodes and a
// sha256 of the cost trajectory. It was recorded from the legacy
// forward-checking search core before that core was deleted; the event
// engine matched it at that point.
const followsunTrace = "cost=32.242990654205606 mig=13 nodes=396 series=f768d282f2bb45d81c2ef0f8896b0bfa1259a53910ea7e610954525f0d24f398"

// TestEngineEquivalence runs the negotiation with only the node budget
// binding and requires the cost trajectory, migration count and search
// effort recorded in followsunTrace.
func TestEngineEquivalence(t *testing.T) {
	p := tinyParams(3)
	p.SolverMaxTime = 0 // only the deterministic node budget binds
	res, err := RunCluster(p, cluster.Options{})
	if err != nil {
		t.Fatal(err)
	}
	h := sha256.New()
	for _, pt := range res.Points {
		fmt.Fprintf(h, "%v\n", pt.Cost)
	}
	got := fmt.Sprintf("cost=%v mig=%d nodes=%d series=%x", res.FinalCost, res.TotalMigrations, res.SolverNodes, h.Sum(nil))
	if got != followsunTrace {
		t.Fatalf("run diverged from the recorded legacy trace:\n got  %s\n want %s", got, followsunTrace)
	}
}

// TestIncrementalEquivalence runs the negotiation with incremental
// re-grounding against fresh grounding and requires identical cost
// trajectories and migration counts.
func TestIncrementalEquivalence(t *testing.T) {
	run := func(incremental bool) *Result {
		p := tinyParams(4)
		p.SolverMaxTime = 0 // only the deterministic node budget binds
		p.SolverIncremental = incremental
		res, err := RunCluster(p, cluster.Options{})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	inc, fresh := run(true), run(false)
	if inc.FinalCost != fresh.FinalCost || inc.TotalMigrations != fresh.TotalMigrations {
		t.Fatalf("grounding paths diverge: incremental cost=%v mig=%d, fresh cost=%v mig=%d",
			inc.FinalCost, inc.TotalMigrations, fresh.FinalCost, fresh.TotalMigrations)
	}
	if len(inc.Points) != len(fresh.Points) {
		t.Fatalf("cost series lengths differ: %d vs %d", len(inc.Points), len(fresh.Points))
	}
	for i := range inc.Points {
		if inc.Points[i].Cost != fresh.Points[i].Cost {
			t.Fatalf("point %d: cost %v vs %v", i, inc.Points[i].Cost, fresh.Points[i].Cost)
		}
	}
}
