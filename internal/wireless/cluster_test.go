package wireless

import (
	"crypto/sha256"
	"fmt"
	"reflect"
	"sort"
	"testing"

	"repro/internal/cluster"
)

func clusterTestParams() Params {
	p := DefaultParams()
	p.GridW, p.GridH = 3, 3
	p.NumFlows = 5
	p.SolverMaxNodes = 6000
	p.SolverMaxTime = 0 // node budget only: deterministic
	return p
}

// distributedTrace fingerprints the clusterTestParams run of the
// Distributed protocol. It was recorded from the sequential Run loop before
// that loop was deleted; RunCluster matched it at every worker count at
// that point.
const distributedTrace = "throughput=[0.5 1 2 3 4 5 6] interference=14 nodes=244 convergence=20200000000 msgs=116 bytes=3356 wire=67ed71c92a1cbc410b6e4748f9327dc2f1a02d678ebde09fc2e43f3e85966c8d"

// clusterFingerprint renders everything TestClusterEquivalence compares:
// the throughput series and interference (which the assignment decides),
// the summed search nodes, the virtual convergence time, and every node's
// wire counters (names sorted), exactly.
func clusterFingerprint(res *Result) string {
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
	return fmt.Sprintf("throughput=%v interference=%d nodes=%d convergence=%d msgs=%d bytes=%d wire=%x",
		res.ThroughputMbps, res.Interference, res.SolverNodes, res.Convergence, msgs, bytes, wire.Sum(nil))
}

// TestClusterEquivalence: the cluster-run distributed protocol must
// reproduce the recorded sequential run byte for byte — assignments (via
// throughput and interference), per-negotiation solver traces, virtual
// convergence time, and per-node wire counters — at any worker count.
func TestClusterEquivalence(t *testing.T) {
	p := clusterTestParams()
	for _, workers := range []int{1, 4} {
		res, err := RunCluster(p, Distributed, cluster.Options{Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		if got := clusterFingerprint(res); got != distributedTrace {
			t.Fatalf("workers=%d: run diverged from the recorded sequential trace:\n got  %s\n want %s", workers, got, distributedTrace)
		}
	}
}

// TestClusterWavesConverges: the concurrent-wave schedule still produces a
// consistent assignment on a generated grid, with every link assigned.
func TestClusterWavesConverges(t *testing.T) {
	p := ScaledGridParams(5, 4)
	p.Passes = 2
	res, err := RunClusterWaves(p, cluster.Options{Workers: 8})
	if err != nil {
		t.Fatal(err)
	}
	if res.SolverNodes == 0 {
		t.Fatal("no solver work recorded")
	}
	if len(res.ThroughputMbps) != len(p.Rates) {
		t.Fatalf("throughput series has %d points, want %d", len(res.ThroughputMbps), len(p.Rates))
	}
	if res.ThroughputMbps[0] <= 0 {
		t.Fatal("no delivered throughput")
	}
}

// TestClusterWavesBatchingReducesMessages: per-(epoch,destination)
// batching on the wave schedule cuts messages without changing decisions.
func TestClusterWavesBatchingReducesMessages(t *testing.T) {
	p := ScaledGridParams(4, 3)
	plain, err := RunClusterWaves(p, cluster.Options{Workers: 8})
	if err != nil {
		t.Fatal(err)
	}
	batched, err := RunClusterWaves(p, cluster.Options{Workers: 8, BatchDeltas: true})
	if err != nil {
		t.Fatal(err)
	}
	if plain.Interference != batched.Interference || !reflect.DeepEqual(plain.ThroughputMbps, batched.ThroughputMbps) {
		t.Fatalf("batching changed the assignment: %+v vs %+v", plain, batched)
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
	t.Logf("grid(4x3): %d msgs unbatched, %d batched", plainMsgs, batchMsgs)
}

// TestClusterNodeFailureAndRejoin: dropping a grid node mid-protocol loses
// its traffic; after a restart (reseeded from its NodeSpec) re-negotiating
// its links re-converges the channel assignment — every link assigned and
// symmetric between endpoints.
func TestClusterNodeFailureAndRejoin(t *testing.T) {
	p := clusterTestParams()
	topo := Grid(p.GridW, p.GridH)
	rt, err := newDistributedCluster(topo, p, cluster.Options{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()

	negotiateAll := func() {
		t.Helper()
		for _, l := range passOrder(topo, p, 0) {
			ini, _ := initiatorOf(l)
			if rt.Node(string(ini)) == nil {
				continue // initiator down: link stays unnegotiated
			}
			if _, err := rt.RunEpoch([]cluster.Item{negotiationItem(rt, l)}); err != nil {
				t.Fatal(err)
			}
			rt.Advance(p.NegotiationInterval)
		}
	}
	negotiateAll()
	before := collectAssignment(topo, runtimeNodes(rt, topo))
	if len(before) != len(topo.Links) {
		t.Fatalf("%d links assigned before failure, want %d", len(before), len(topo.Links))
	}

	// Drop the center node; its neighbors keep negotiating (messages to it
	// are lost), then it rejoins with only its seed facts.
	const victim = "n04"
	if err := rt.StopNode(victim); err != nil {
		t.Fatal(err)
	}
	negotiateAll()
	if _, err := rt.RestartNode(victim); err != nil {
		t.Fatal(err)
	}
	rt.Settle()

	// Re-negotiating after the rejoin restores a complete, symmetric
	// assignment: the fresh node relearns neighbor state from the
	// negotiations it initiates and receives.
	negotiateAll()
	negotiateAll()
	rt.Settle()
	after := collectAssignment(topo, runtimeNodes(rt, topo))
	if len(after) != len(topo.Links) {
		t.Fatalf("%d links assigned after rejoin, want %d", len(after), len(topo.Links))
	}
	// Symmetry: both endpoints agree on every link's channel (rule r1
	// replicates the decided channel to the peer).
	nodes := runtimeNodes(rt, topo)
	for _, l := range topo.Links {
		chans := map[int64]bool{}
		for _, end := range []NodeID{l.A, l.B} {
			for _, row := range nodes[end].Rows("assign") {
				if NodeID(row[0].S) != end {
					continue
				}
				if orient(NodeID(row[0].S), NodeID(row[1].S)) == l {
					chans[row[2].I] = true
				}
			}
		}
		if len(chans) > 1 {
			t.Fatalf("link %s endpoints disagree on channel: %v", l, chans)
		}
	}
}
