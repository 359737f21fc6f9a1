package wireless

import (
	"crypto/sha256"
	"fmt"
	"math/rand"
	"testing"
	"time"

	"repro/internal/cluster"
)

func tinyParams() Params {
	p := DefaultParams()
	p.GridW, p.GridH = 3, 3
	p.NumFlows = 5
	p.SolverMaxNodes = 3000
	p.SolverMaxTime = 300 * time.Millisecond
	p.Passes = 1
	p.Rates = []float64{0.5, 2.0, 4.0}
	return p
}

func TestGridTopology(t *testing.T) {
	topo := Grid(6, 5)
	if len(topo.Nodes) != 30 {
		t.Fatalf("nodes = %d, want 30", len(topo.Nodes))
	}
	// 6x5 grid: 5*5 horizontal + 6*4 vertical = 49 links.
	if len(topo.Links) != 49 {
		t.Fatalf("links = %d, want 49", len(topo.Links))
	}
	// Interference sets: one-hop subset of two-hop.
	for _, l := range topo.Links {
		one := map[Link]bool{}
		for _, o := range topo.Interferers(l, false) {
			one[o] = true
		}
		two := map[Link]bool{}
		for _, o := range topo.Interferers(l, true) {
			two[o] = true
		}
		if len(two) < len(one) {
			t.Fatalf("link %s: two-hop set smaller than one-hop", l)
		}
		for o := range one {
			if !two[o] {
				t.Fatalf("link %s: one-hop interferer %s missing from two-hop set", l, o)
			}
		}
	}
}

func TestShortestPath(t *testing.T) {
	topo := Grid(4, 1) // a line n0-n1-n2-n3
	path := topo.shortestPath("n00", "n03", nil)
	if len(path) != 3 {
		t.Fatalf("path = %v", path)
	}
	if p := topo.shortestPath("n00", "n00", nil); len(p) != 0 {
		t.Fatalf("self path = %v", p)
	}
}

// The hop-count BFS fast path must return exactly the paths the weighted
// Dijkstra produces on unit weights — same hops, same tie-breaks — since
// every figure and the 10k scale gate route through it.
func TestRouteHopPathsMatchDijkstra(t *testing.T) {
	topo := Grid(9, 7)
	rng := rand.New(rand.NewSource(11))
	flows := topo.RandomFlows(60, rng)
	fast := make([]Flow, len(flows))
	copy(fast, flows)
	topo.routeHopPaths(fast)
	for i, f := range flows {
		want := topo.shortestPath(f.Src, f.Dst, func(Link) float64 { return 1 })
		got := fast[i].Path
		if len(got) != len(want) {
			t.Fatalf("flow %s->%s: got %d hops, want %d", f.Src, f.Dst, len(got), len(want))
		}
		for j := range got {
			if got[j] != want[j] {
				t.Fatalf("flow %s->%s hop %d: got %v, want %v", f.Src, f.Dst, j, got[j], want[j])
			}
		}
	}
}

func TestGreedyColoringAvoidsAdjacentConflicts(t *testing.T) {
	topo := Grid(3, 3)
	a := GreedyColoring(topo, []int64{1, 6, 11}, 5, true)
	if len(a) != len(topo.Links) {
		t.Fatalf("assignment covers %d links, want %d", len(a), len(topo.Links))
	}
	full := topo.InterferenceCost(uniformAssignment(topo, 6), 5)
	colored := topo.InterferenceCost(a, 5)
	if colored >= full {
		t.Fatalf("greedy coloring (%d) no better than single channel (%d)", colored, full)
	}
}

func TestGreedyColoringRespectsPrimaryUsers(t *testing.T) {
	topo := Grid(2, 2)
	topo.PrimaryUsers["n00"] = []int64{1, 6}
	a := GreedyColoring(topo, []int64{1, 6, 11}, 5, true)
	for l, c := range a {
		if (l.A == "n00" || l.B == "n00") && c != 11 {
			t.Fatalf("link %s uses forbidden channel %d", l, c)
		}
	}
}

func TestThroughputModelMonotoneInChannelDiversity(t *testing.T) {
	topo := Grid(3, 3)
	rng := rand.New(rand.NewSource(1))
	flows := topo.RandomFlows(6, rng)
	topo.RoutePaths(flows, nil)
	m := &ThroughputModel{Topo: topo, CapacityMbps: 11, FMindiff: 5}
	single := m.Aggregate(flows, uniformAssignment(topo, 6), 1.0)
	diverse := m.Aggregate(flows, GreedyColoring(topo, []int64{1, 6, 11}, 5, true), 1.0)
	if diverse <= single {
		t.Fatalf("diverse channels (%.2f) not better than single (%.2f)", diverse, single)
	}
	// Throughput can never exceed offered load.
	if diverse > 6.0+1e-9 {
		t.Fatalf("throughput %.2f exceeds offered 6.0", diverse)
	}
}

func TestRunOneInterface(t *testing.T) {
	res, err := RunCluster(tinyParams(), OneInterface, cluster.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.ThroughputMbps) != 3 {
		t.Fatalf("series length = %d", len(res.ThroughputMbps))
	}
	for i, th := range res.ThroughputMbps {
		if th < 0 || th > res.OfferedMbps[i]+1e-9 {
			t.Fatalf("throughput %v outside [0, offered=%v]", th, res.OfferedMbps[i])
		}
	}
}

func TestRunCentralizedBeatsOneInterface(t *testing.T) {
	p := tinyParams()
	one, err := RunCluster(p, OneInterface, cluster.Options{})
	if err != nil {
		t.Fatal(err)
	}
	cent, err := RunCluster(p, Centralized, cluster.Options{})
	if err != nil {
		t.Fatal(err)
	}
	// Compare at the highest offered rate, where interference binds.
	last := len(p.Rates) - 1
	if cent.ThroughputMbps[last] <= one.ThroughputMbps[last] {
		t.Fatalf("Centralized (%.2f) not above 1-Interface (%.2f)",
			cent.ThroughputMbps[last], one.ThroughputMbps[last])
	}
	if cent.Interference >= one.Interference {
		t.Fatalf("Centralized interference %d not below 1-Interface %d",
			cent.Interference, one.Interference)
	}
}

func TestRunDistributed(t *testing.T) {
	p := tinyParams()
	res, err := RunCluster(p, Distributed, cluster.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Convergence == 0 {
		t.Fatal("no convergence time recorded")
	}
	if res.PerNodeKBps <= 0 {
		t.Fatal("no bandwidth recorded")
	}
	one, err := RunCluster(p, OneInterface, cluster.Options{})
	if err != nil {
		t.Fatal(err)
	}
	last := len(p.Rates) - 1
	if res.ThroughputMbps[last] <= one.ThroughputMbps[last] {
		t.Fatalf("Distributed (%.2f) not above 1-Interface (%.2f)",
			res.ThroughputMbps[last], one.ThroughputMbps[last])
	}
}

func TestRunCrossLayerAtLeastDistributed(t *testing.T) {
	p := tinyParams()
	dist, err := RunCluster(p, Distributed, cluster.Options{})
	if err != nil {
		t.Fatal(err)
	}
	cross, err := RunCluster(p, CrossLayer, cluster.Options{})
	if err != nil {
		t.Fatal(err)
	}
	last := len(p.Rates) - 1
	if cross.ThroughputMbps[last] < dist.ThroughputMbps[last]-0.5 {
		t.Fatalf("Cross-layer (%.2f) clearly below Distributed (%.2f)",
			cross.ThroughputMbps[last], dist.ThroughputMbps[last])
	}
}

func TestRestrictedChannelsReduceThroughput(t *testing.T) {
	p := tinyParams()
	base, err := RunCluster(p, CrossLayer, cluster.Options{})
	if err != nil {
		t.Fatal(err)
	}
	p.RestrictedChannels = true
	restricted, err := RunCluster(p, CrossLayer, cluster.Options{})
	if err != nil {
		t.Fatal(err)
	}
	last := len(p.Rates) - 1
	if restricted.ThroughputMbps[last] > base.ThroughputMbps[last]+1e-9 {
		t.Fatalf("restricted channels improved throughput: %.2f > %.2f",
			restricted.ThroughputMbps[last], base.ThroughputMbps[last])
	}
}

func TestProtocolString(t *testing.T) {
	names := map[Protocol]string{
		OneInterface: "1-Interface", IdenticalCh: "Identical-Ch",
		Centralized: "Centralized", Distributed: "Distributed",
		CrossLayer: "Cross-layer",
	}
	for p, want := range names {
		if p.String() != want {
			t.Errorf("%d.String() = %q, want %q", p, p.String(), want)
		}
	}
}

func TestInterferenceCostSymmetric(t *testing.T) {
	topo := Grid(2, 2)
	a := uniformAssignment(topo, 6)
	c := topo.InterferenceCost(a, 5)
	if c <= 0 {
		t.Fatalf("uniform assignment has no interference: %d", c)
	}
}

func TestRateSweepAllProtocols(t *testing.T) {
	p := tinyParams()
	all, err := RateSweep(p)
	if err != nil {
		t.Fatal(err)
	}
	if len(all) != 5 {
		t.Fatalf("protocols = %d, want 5", len(all))
	}
	last := len(p.Rates) - 1
	// Figure 6 ordering at saturation: everything beats 1-Interface.
	one := all[OneInterface].ThroughputMbps[last]
	for proto, r := range all {
		if proto == OneInterface {
			continue
		}
		if r.ThroughputMbps[last] < one {
			t.Errorf("%s (%.2f) below 1-Interface (%.2f)", proto, r.ThroughputMbps[last], one)
		}
	}
}

func TestIdenticalChUsesTwoChannels(t *testing.T) {
	p := tinyParams()
	res, err := RunCluster(p, IdenticalCh, cluster.Options{})
	if err != nil {
		t.Fatal(err)
	}
	// Identical-Ch must sit between 1-Interface and Distributed.
	one, err := RunCluster(p, OneInterface, cluster.Options{})
	if err != nil {
		t.Fatal(err)
	}
	last := len(p.Rates) - 1
	if res.ThroughputMbps[last] < one.ThroughputMbps[last] {
		t.Fatalf("Identical-Ch (%.2f) below 1-Interface (%.2f)",
			res.ThroughputMbps[last], one.ThroughputMbps[last])
	}
}

// wirelessTrace fingerprints, per protocol, the channel assignment run of
// TestEngineEquivalence: residual interference, summed search nodes and a
// sha256 of the throughput series. The lines were recorded from the legacy
// forward-checking search core before that core was deleted; the event
// engine matched both at that point.
var wirelessTrace = map[Protocol]string{
	Centralized: "interference=12 nodes=0 series=79428d84fe8d5570b9483be0c402ab04af9bc9f9ea088a7faed6d2a144675d8f",
	Distributed: "interference=14 nodes=112 series=79428d84fe8d5570b9483be0c402ab04af9bc9f9ea088a7faed6d2a144675d8f",
}

// TestEngineEquivalence runs the centralized and distributed channel
// assignments with only the node budget binding and requires the
// throughput series, interference counts and search effort recorded in
// wirelessTrace.
func TestEngineEquivalence(t *testing.T) {
	for _, proto := range []Protocol{Centralized, Distributed} {
		p := tinyParams()
		p.SolverMaxTime = 0 // only the deterministic node budget binds
		res, err := RunCluster(p, proto, cluster.Options{})
		if err != nil {
			t.Fatal(err)
		}
		h := sha256.New()
		for _, mbps := range res.ThroughputMbps {
			fmt.Fprintf(h, "%v\n", mbps)
		}
		got := fmt.Sprintf("interference=%d nodes=%d series=%x", res.Interference, res.SolverNodes, h.Sum(nil))
		if want := wirelessTrace[proto]; got != want {
			t.Errorf("%s: run diverged from the recorded legacy trace:\n got  %s\n want %s", proto, got, want)
		}
	}
}

// TestIncrementalEquivalence runs the centralized and distributed channel
// assignments with incremental re-grounding against fresh grounding and
// requires identical throughput series and interference counts.
func TestIncrementalEquivalence(t *testing.T) {
	for _, proto := range []Protocol{Centralized, Distributed} {
		run := func(incremental bool) *Result {
			p := tinyParams()
			p.SolverMaxTime = 0 // only the deterministic node budget binds
			p.SolverIncremental = incremental
			res, err := RunCluster(p, proto, cluster.Options{})
			if err != nil {
				t.Fatal(err)
			}
			return res
		}
		inc, fresh := run(true), run(false)
		if inc.Interference != fresh.Interference {
			t.Fatalf("%s: interference %d vs %d", proto, inc.Interference, fresh.Interference)
		}
		for i := range inc.ThroughputMbps {
			if inc.ThroughputMbps[i] != fresh.ThroughputMbps[i] {
				t.Fatalf("%s: throughput[%d] %v vs %v",
					proto, i, inc.ThroughputMbps[i], fresh.ThroughputMbps[i])
			}
		}
	}
}
