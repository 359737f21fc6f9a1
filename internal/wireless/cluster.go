package wireless

import (
	"fmt"
	"math/rand"
	"time"

	"repro/internal/cluster"
	"repro/internal/colog"
	"repro/internal/core"
	"repro/internal/programs"
	"repro/internal/transport"
)

// ScaledGridParams returns a generated W x H grid scenario sized for the
// cluster runtime: one negotiation pass, tighter solver budgets, and a
// short rate sweep. ScaledGridParams(20, 10) is the 200-node scenario the
// cluster benchmarks run; ScaledGridParams(25, 20) is a 500-node grid.
func ScaledGridParams(w, h int) Params {
	p := DefaultParams()
	p.GridW, p.GridH = w, h
	p.NumFlows = w * h / 2
	p.Rates = []float64{0.2, 0.6, 1.0}
	p.SolverMaxNodes = 4000
	p.Passes = 1
	return p
}

// distributedAssignment runs the appendix A.3 per-link negotiation on the
// cluster runtime: every link is negotiated by its larger endpoint, the
// decided channel propagates to the neighbor (rule r1) and into the
// two-hop neighborhood (rule r2), and subsequent negotiations solve against
// that replicated state.
func distributedAssignment(t *Topology, p Params, res *Result, o cluster.Options) (Assignment, error) {
	rt, err := newDistributedCluster(t, p, o)
	if err != nil {
		return nil, err
	}
	defer rt.Close()

	prev := Assignment{}
	for pass := 0; pass < maxInt(1, p.Passes); pass++ {
		for _, l := range passOrder(t, p, pass) {
			if _, err := rt.RunEpoch([]cluster.Item{negotiationItem(rt, l)}); err != nil {
				return nil, err
			}
			rt.Advance(p.NegotiationInterval)
		}
		cur := collectAssignment(t, runtimeNodes(rt, t))
		if pass > 0 && sameAssignment(prev, cur) {
			break
		}
		prev = cur
	}
	finishDistributed(rt, t, res)
	return collectAssignment(t, runtimeNodes(rt, t)), nil
}

// RunClusterWaves runs the distributed channel selection with concurrent
// negotiation waves: every epoch negotiates a maximal prefix of the pass
// order in which no initiator repeats, so the per-epoch items are
// node-disjoint and run on the worker pool. Decisions made within one wave
// do not see each other (they replicate at the wave barrier) — the relaxed
// asynchronous schedule the paper's implementation mode would produce, not
// the sequential trace; convergence still holds over passes. This is the
// mode the ≥200-node scale benchmarks exercise.
func RunClusterWaves(p Params, o cluster.Options) (*Result, error) {
	topo := Grid(p.GridW, p.GridH)
	rng := rand.New(rand.NewSource(p.Seed))
	if p.RestrictedChannels {
		restrictChannels(topo, p.Channels, rng)
	}
	flows := topo.RandomFlows(p.NumFlows, rng)
	topo.RoutePaths(flows, nil)
	res := &Result{Protocol: Distributed}
	rt, err := newDistributedCluster(topo, p, o)
	if err != nil {
		return nil, err
	}
	defer rt.Close()

	prev := Assignment{}
	for pass := 0; pass < maxInt(1, p.Passes); pass++ {
		for w, wave := range waves(passOrder(topo, p, pass)) {
			if p.WaveLimit > 0 && w >= p.WaveLimit {
				break
			}
			items := make([]cluster.Item, len(wave))
			for i, l := range wave {
				items[i] = negotiationItem(rt, l)
			}
			if _, err := rt.RunEpoch(items); err != nil {
				return nil, err
			}
			rt.Advance(p.NegotiationInterval)
		}
		cur := collectAssignment(topo, runtimeNodes(rt, topo))
		if pass > 0 && sameAssignment(prev, cur) {
			break
		}
		prev = cur
	}
	finishDistributed(rt, topo, res)
	assign := collectAssignment(topo, runtimeNodes(rt, topo))
	res.Interference = topo.InterferenceCost(assign, p.FMindiff)
	model := &ThroughputModel{Topo: topo, CapacityMbps: p.CapacityMbps, FMindiff: p.FMindiff}
	for _, r := range p.Rates {
		res.OfferedMbps = append(res.OfferedMbps, r*float64(len(flows)))
		res.ThroughputMbps = append(res.ThroughputMbps, model.Aggregate(flows, assign, r))
	}
	return res, nil
}

// newDistributedCluster builds the negotiation cluster: one Cologne
// instance per grid node, seeded with its channel pool, primary users,
// interface count, and links. The seed hook doubles as the rejoin state
// for RestartNode.
func newDistributedCluster(t *Topology, p Params, o cluster.Options) (*cluster.Runtime, error) {
	o.Latency = 2 * time.Millisecond
	rt := cluster.New(o)
	entry := programs.WirelessDistributed(p.FMindiff, p.TwoHopCost)
	ares := entry.Analyze()
	specs := make([]cluster.NodeSpec, len(t.Nodes))
	for i, n := range t.Nodes {
		n := n
		specs[i] = cluster.NodeSpec{
			Addr:    string(n),
			Program: ares,
			Config:  distributedConfig(p, entry),
			Seed:    func(node *core.Node) error { return seedWirelessNode(node, t, p, n) },
		}
	}
	if err := rt.SpawnAll(specs); err != nil {
		return nil, err
	}
	rt.Advance(time.Second)
	return rt, nil
}

// negotiationItem wraps one link negotiation as an epoch item. Only the
// initiator does local work; the decision reaches the peer and the two-hop
// neighborhood through the transport after the epoch barrier.
func negotiationItem(rt *cluster.Runtime, l Link) cluster.Item {
	initiator, peer := initiatorOf(l)
	return cluster.Item{
		Label: fmt.Sprintf("negotiate %s", l),
		Nodes: []string{string(initiator)},
		Run: func() (*core.SolveResult, error) {
			node := rt.Node(string(initiator))
			if node == nil {
				return nil, fmt.Errorf("wireless: negotiating %s: initiator %s is down", l, initiator)
			}
			if err := node.Insert("setLink", colog.StringVal(string(initiator)), colog.StringVal(string(peer))); err != nil {
				return nil, err
			}
			sres, err := node.Solve(core.SolveOptions{})
			if err != nil {
				return nil, fmt.Errorf("wireless: negotiating %s: %w", l, err)
			}
			return sres, node.Delete("setLink", colog.StringVal(string(initiator)), colog.StringVal(string(peer)))
		},
	}
}

// waves greedily partitions the negotiation order into maximal prefixes
// with pairwise-distinct initiators, preserving order within each wave.
func waves(order []Link) [][]Link {
	var out [][]Link
	var wave []Link
	used := map[NodeID]bool{}
	for _, l := range order {
		ini, _ := initiatorOf(l)
		if used[ini] {
			out = append(out, wave)
			wave = nil
			used = map[NodeID]bool{}
		}
		used[ini] = true
		wave = append(wave, l)
	}
	if len(wave) > 0 {
		out = append(out, wave)
	}
	return out
}

// runtimeNodes adapts the runtime's live nodes to collectAssignment.
func runtimeNodes(rt *cluster.Runtime, t *Topology) map[NodeID]*core.Node {
	nodes := map[NodeID]*core.Node{}
	for _, n := range t.Nodes {
		if node := rt.Node(string(n)); node != nil {
			nodes[n] = node
		}
	}
	return nodes
}

// finishDistributed fills the convergence and overhead metrics from the
// runtime's epoch history and transport counters.
func finishDistributed(rt *cluster.Runtime, t *Topology, res *Result) {
	for _, st := range rt.History() {
		res.SolverNodes += st.SolverNodes
		res.AggMsgs += st.AggMsgs
		res.AggBytes += st.AggBytes
	}
	res.Convergence = rt.Now()
	res.WireStats = map[string]transport.Stats{}
	secs := rt.Now().Seconds()
	total := 0.0
	for _, n := range t.Nodes {
		st := rt.Transport().NodeStats(string(n))
		res.WireStats[string(n)] = st
		total += float64(st.BytesSent)
	}
	if secs > 0 {
		res.PerNodeKBps = total / secs / float64(len(t.Nodes)) / 1024
	}
}
