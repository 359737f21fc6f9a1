package followsun

import (
	"crypto/sha256"
	"fmt"
	"sort"
	"testing"
	"time"

	"repro/internal/cluster"
)

func clusterTestParams() Params {
	p := DefaultParams(5)
	p.DemandMax = 4
	p.SolverMaxNodes = 4000
	p.SolverMaxTime = 0 // node budget only: deterministic
	return p
}

// denseTrace and sparseTrace fingerprint the clusterTestParams run and the
// TestClusterEquivalenceSparse ring. Both were recorded from the sequential
// Run loop before it was deleted; RunCluster matched them at every worker
// count at that point.
const (
	denseTrace  = "cost=59.545814628993924 rounds=4 mig=33 solves=7 nodes=19875 msgs=422 bytes=13060 points=03def982252be1586bc4e402054810385324e33159f49b491c36f5f5dd54e16e wire=5c0f79326b5ea5d56d8e645d07885ecefe058c4f3424edc84077c09326d07a38"
	sparseTrace = "cost=51.11597374179431 rounds=2 mig=35 solves=8 nodes=88 msgs=208 bytes=6420 points=a6ce7a912053b5c385d9bcca89a8bd4adec2476ed2e6148b37260140505946ec wire=284f49ddcc3b8e545e5e97e7c8e2d4571f08438053840bf5ea49737417f6e215"
)

// clusterFingerprint renders everything the equivalence tests compare: the
// summary counters, the cost series with its virtual timestamps, and every
// node's wire counters (names sorted), exactly.
func clusterFingerprint(res *Result) string {
	points := sha256.New()
	for _, pt := range res.Points {
		fmt.Fprintf(points, "%d %v\n", pt.T, pt.Cost)
	}
	names := make([]string, 0, len(res.WireStats))
	for name := range res.WireStats {
		names = append(names, name)
	}
	sort.Strings(names)
	wire := sha256.New()
	var msgs, bytes int64
	for _, name := range names {
		st := res.WireStats[name]
		fmt.Fprintf(wire, "%s %d %d %d %d\n", name, st.MsgsSent, st.MsgsReceived, st.BytesSent, st.BytesReceived)
		msgs += st.MsgsSent
		bytes += st.BytesSent
	}
	return fmt.Sprintf("cost=%v rounds=%d mig=%d solves=%d nodes=%d msgs=%d bytes=%d points=%x wire=%x",
		res.FinalCost, res.Rounds, res.TotalMigrations, res.PerLinkSolves, res.SolverNodes,
		msgs, bytes, points.Sum(nil), wire.Sum(nil))
}

// TestClusterEquivalence: the concurrent cluster run must reproduce the
// recorded sequential run byte for byte — cost series, migrations,
// per-link solver traces, and per-node wire counters — at any worker
// count. This is the sim-mode determinism guarantee of the epoch barrier.
func TestClusterEquivalence(t *testing.T) {
	p := clusterTestParams()
	for _, workers := range []int{1, 8} {
		res, err := RunCluster(p, cluster.Options{Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		if got := clusterFingerprint(res); got != denseTrace {
			t.Fatalf("workers=%d: run diverged from the recorded sequential trace:\n got  %s\n want %s", workers, got, denseTrace)
		}
	}
}

// TestRingGeneratorConverges: a generated sparse-demand ring completes
// under the cluster runtime and still reduces cost.
func TestRingGeneratorConverges(t *testing.T) {
	p := RingParams(12)
	res, err := RunCluster(p, cluster.Options{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	if res.PerLinkSolves != 12 {
		t.Fatalf("solves = %d, want one per ring link", res.PerLinkSolves)
	}
	if res.FinalCost > 100 {
		t.Fatalf("final cost %.1f%% above initial", res.FinalCost)
	}
	if len(res.WireStats) != 12 {
		t.Fatalf("wire stats for %d nodes, want 12", len(res.WireStats))
	}
}

// TestRingBatchingReducesMessages: per-(epoch,destination) delta batching
// must cut the message count on the ring while preserving the outcome.
func TestRingBatchingReducesMessages(t *testing.T) {
	p := RingParams(10)
	plain, err := RunCluster(p, cluster.Options{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	batched, err := RunCluster(p, cluster.Options{Workers: 4, BatchDeltas: true})
	if err != nil {
		t.Fatal(err)
	}
	if plain.FinalCost != batched.FinalCost || plain.TotalMigrations != batched.TotalMigrations {
		t.Fatalf("batching changed the outcome: %+v vs %+v", plain, batched)
	}
	var plainMsgs, batchMsgs int64
	for _, st := range plain.WireStats {
		plainMsgs += st.MsgsSent
	}
	for _, st := range batched.WireStats {
		batchMsgs += st.MsgsSent
	}
	if batchMsgs >= plainMsgs {
		t.Fatalf("batching did not reduce messages: %d >= %d", batchMsgs, plainMsgs)
	}
	t.Logf("ring(10): %d msgs unbatched, %d batched", plainMsgs, batchMsgs)
}

// TestClusterUDPMode: the scenario runner also completes over real UDP
// sockets (free-running rounds, wall-clock time) — regression for the
// nil-scheduler panic in Runtime.Now outside simulation mode.
func TestClusterUDPMode(t *testing.T) {
	p := RingParams(4)
	p.NegotiationInterval = 10 * time.Millisecond
	res, err := RunCluster(p, cluster.Options{Mode: cluster.ModeUDP, Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	if res.PerLinkSolves != 4 {
		t.Fatalf("solves = %d, want 4", res.PerLinkSolves)
	}
	if res.ConvergenceTime <= 0 {
		t.Fatalf("convergence time = %v, want wall-clock elapsed", res.ConvergenceTime)
	}
}

// TestClusterEquivalenceSparse: equivalence also holds for the generated
// sparse topology (the configuration the scale benchmarks run).
func TestClusterEquivalenceSparse(t *testing.T) {
	p := RingParams(8)
	p.NegotiationInterval = time.Second
	for _, workers := range []int{1, 6} {
		res, err := RunCluster(p, cluster.Options{Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		if got := clusterFingerprint(res); got != sparseTrace {
			t.Fatalf("workers=%d: sparse ring diverged from the recorded sequential trace:\n got  %s\n want %s", workers, got, sparseTrace)
		}
	}
}
