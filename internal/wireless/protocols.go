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

// Protocol selects the channel-selection strategy of Figure 6.
type Protocol int

const (
	// OneInterface is the baseline where every node shares one interface
	// and hence one common channel.
	OneInterface Protocol = iota
	// IdenticalCh assigns the same channel set to every node's interfaces
	// and picks, per link, one of those channels ([12]).
	IdenticalCh
	// Centralized runs the appendix A.2 Colog program on one solver.
	Centralized
	// Distributed runs the appendix A.3 per-link negotiation protocol.
	Distributed
	// CrossLayer combines distributed channel selection with
	// interference-aware routing ([14]).
	CrossLayer
)

// String names the protocol as in Figure 6.
func (p Protocol) String() string {
	switch p {
	case IdenticalCh:
		return "Identical-Ch"
	case Centralized:
		return "Centralized"
	case Distributed:
		return "Distributed"
	case CrossLayer:
		return "Cross-layer"
	default:
		return "1-Interface"
	}
}

// Params configure one wireless experiment.
type Params struct {
	GridW, GridH int     // paper: 30 nodes (6 x 5)
	Channels     []int64 // orthogonal-ish 802.11 channels
	FMindiff     int64   // interference threshold (|c1-c2| < F)
	CapacityMbps float64 // nominal link capacity
	NumFlows     int
	Rates        []float64 // per-flow offered rates to sweep (Mbps)

	// TwoHopCost selects the interference model the *protocol* optimizes
	// (the physical model is always two-hop); Figure 7's "1-hop
	// Interference" variant sets this false.
	TwoHopCost bool
	// RestrictedChannels removes ~20% of channels via primary users
	// (Figure 7).
	RestrictedChannels bool

	NegotiationInterval time.Duration // distributed per-round virtual time
	SolverMaxNodes      int64
	SolverMaxTime       time.Duration
	// SolverIncremental enables incremental re-grounding with solver-model
	// patching between ticks (see core.Config).
	SolverIncremental bool
	Passes            int // distributed refinement passes
	// WaveLimit caps the negotiation waves per pass in RunClusterWaves
	// (0 = all waves). The 10k-node scale gates use it to run a full
	// first-wave round — every node spawned, seeded, and replicating, the
	// maximal disjoint link set negotiating — without paying for the long
	// sequential tail of residual waves.
	WaveLimit int

	Seed int64
}

// DefaultParams returns the 30-node configuration of section 6.4.
func DefaultParams() Params {
	return Params{
		GridW: 6, GridH: 5,
		// The full 802.11b/g channel set with partial spectral overlap:
		// channels closer than FMindiff interfere (one fully orthogonal
		// triple, 1/6/11, exists).
		Channels: []int64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11}, FMindiff: 5,
		CapacityMbps: 11, NumFlows: 15,
		Rates:               []float64{0.1, 0.2, 0.4, 0.6, 0.8, 1.0, 1.2},
		TwoHopCost:          true,
		NegotiationInterval: 800 * time.Millisecond,
		SolverMaxNodes:      20000,
		SolverIncremental:   true,
		Passes:              2,
		Seed:                7,
	}
}

// Result holds one protocol's Figure 6 series plus overhead metrics.
type Result struct {
	Protocol       Protocol
	OfferedMbps    []float64 // total offered rate (flows x per-flow rate)
	ThroughputMbps []float64
	// Convergence is the virtual time the distributed protocols took; for
	// Centralized it is the solver wall time.
	Convergence  time.Duration
	PerNodeKBps  float64
	Interference int // residual interfering pairs (two-hop physical model)
	// SolverNodes sums the search nodes over every negotiation solve (the
	// cluster equivalence suite compares it exactly).
	SolverNodes int64
	// WireStats holds each node's transport counters after a distributed
	// run (the Figure 6/7 per-node overhead, unnormalized).
	WireStats map[string]transport.Stats
	// AggMsgs and AggBytes count the cross-shard epoch-summary frames of a
	// sharded run (zero unsharded or with aggregation off); the
	// rollup-vs-allpairs benchmarks compare exactly these.
	AggMsgs, AggBytes int64
}

// RunCluster evaluates one protocol across the configured rate sweep; it is
// the package's only experiment runner for the Figure 6/7 protocols. The
// distributed negotiation runs on the cluster runtime. Each negotiation
// depends on the replicated outcome of the previous one (the network settles
// between them), so its cluster schedule is one item per epoch.
// TestClusterEquivalence pins the run (assignments, solver traces, per-node
// wire counters) to fingerprints recorded from the sequential loop it
// replaced. For concurrent negotiation at scale, see RunClusterWaves. The
// other protocols solve on at most one Colog instance and ignore o.
func RunCluster(p Params, proto Protocol, o cluster.Options) (*Result, error) {
	topo := Grid(p.GridW, p.GridH)
	rng := rand.New(rand.NewSource(p.Seed))
	if p.RestrictedChannels {
		restrictChannels(topo, p.Channels, rng)
	}
	flows := topo.RandomFlows(p.NumFlows, rng)
	topo.RoutePaths(flows, nil) // hop-count routing first

	res := &Result{Protocol: proto}
	var assign Assignment
	var err error
	switch proto {
	case OneInterface:
		assign = uniformAssignment(topo, 6)
	case IdenticalCh:
		assign, err = identicalChAssignment(topo, p)
	case Centralized:
		assign, err = centralizedAssignment(topo, p, res)
	case Distributed, CrossLayer:
		assign, err = distributedAssignment(topo, p, res, o)
	default:
		return nil, fmt.Errorf("wireless: unknown protocol %d", proto)
	}
	if err != nil {
		return nil, err
	}

	model := &ThroughputModel{Topo: topo, CapacityMbps: p.CapacityMbps, FMindiff: p.FMindiff}
	if proto == CrossLayer {
		// Cross-layer: jointly pick the routing given the channels. Several
		// interference-aware metrics compete against plain shortest path,
		// judged by the protocol's own throughput objective at the highest
		// offered rate.
		calib := p.Rates[len(p.Rates)-1]
		type cand struct{ weight func(Link) float64 }
		cands := []cand{
			{nil},
			{interferenceAwareWeight(topo, assign, p.FMindiff, 1.0, p.TwoHopCost)},
			{interferenceAwareWeight(topo, assign, p.FMindiff, 0.3, p.TwoHopCost)},
		}
		bestTh := -1.0
		var bestPaths [][]Link
		for _, c := range cands {
			topo.RoutePaths(flows, c.weight)
			th := model.Aggregate(flows, assign, calib)
			if th > bestTh {
				bestTh = th
				bestPaths = make([][]Link, len(flows))
				for i := range flows {
					bestPaths[i] = flows[i].Path
				}
			}
		}
		for i := range flows {
			flows[i].Path = bestPaths[i]
		}
	}
	res.Interference = topo.InterferenceCost(assign, p.FMindiff)
	for _, r := range p.Rates {
		res.OfferedMbps = append(res.OfferedMbps, r*float64(len(flows)))
		res.ThroughputMbps = append(res.ThroughputMbps, model.Aggregate(flows, assign, r))
	}
	return res, nil
}

// restrictChannels marks channels as primary-user occupied so that each
// node loses ~20% of its available spectrum, the Figure 7 "Restricted
// Channels" policy. Removal is in contiguous bands (a primary user occupies
// a band, not isolated channels), which is what actually reduces the
// orthogonal-channel diversity.
func restrictChannels(t *Topology, channels []int64, rng *rand.Rand) {
	if len(channels) < 2 {
		return
	}
	bandLen := len(channels) / 5 // ~20%
	if bandLen < 1 {
		bandLen = 1
	}
	for _, n := range t.Nodes {
		start := rng.Intn(len(channels) - bandLen + 1)
		for i := start; i < start+bandLen; i++ {
			t.PrimaryUsers[n] = append(t.PrimaryUsers[n], channels[i])
		}
	}
}

func uniformAssignment(t *Topology, ch int64) Assignment {
	a := Assignment{}
	for _, l := range t.Links {
		a[l] = ch
	}
	return a
}

// identicalChAssignment: every node's two interfaces carry the same two
// (maximally spread) channels; a central solver assigns each link to one of
// them. We reuse the centralized Colog program with the reduced pool.
func identicalChAssignment(t *Topology, p Params) (Assignment, error) {
	q := p
	if len(q.Channels) > 2 {
		q.Channels = []int64{q.Channels[0], q.Channels[len(q.Channels)-1]}
	}
	return centralizedAssignment(t, q, &Result{})
}

// centralizedAssignment runs the appendix A.2 program on a single Cologne
// instance holding the whole topology.
func centralizedAssignment(t *Topology, p Params, res *Result) (Assignment, error) {
	entry := programs.WirelessCentralized(p.TwoHopCost, p.FMindiff)
	cfg := entry.Config
	cfg.SolverMaxNodes = p.SolverMaxNodes
	cfg.SolverMaxTime = p.SolverMaxTime
	cfg.SolverIncremental = p.SolverIncremental
	node, err := core.NewNode("manager", entry.Analyze(), cfg, nil)
	if err != nil {
		return nil, err
	}
	for _, c := range p.Channels {
		if err := node.Insert("availChannel", colog.IntVal(c)); err != nil {
			return nil, err
		}
	}
	for _, n := range t.Nodes {
		if err := node.Insert("numInterface", colog.StringVal(string(n)), colog.IntVal(2)); err != nil {
			return nil, err
		}
		for _, pc := range t.PrimaryUsers[n] {
			if err := node.Insert("primaryUser", colog.StringVal(string(n)), colog.IntVal(pc)); err != nil {
				return nil, err
			}
		}
	}
	for _, l := range t.Links {
		for _, pair := range [][2]NodeID{{l.A, l.B}, {l.B, l.A}} {
			if err := node.Insert("link", colog.StringVal(string(pair[0])), colog.StringVal(string(pair[1]))); err != nil {
				return nil, err
			}
		}
	}
	hint := GreedyColoring(t, p.Channels, p.FMindiff, p.TwoHopCost)
	start := time.Now()
	sres, err := node.Solve(core.SolveOptions{
		Hint: func(pred string, vals []colog.Value) (int64, bool) {
			if pred != "assign" {
				return 0, false
			}
			return hint[orient(NodeID(vals[0].S), NodeID(vals[1].S))], true
		},
	})
	if err != nil {
		return nil, err
	}
	res.Convergence = time.Since(start)
	if !sres.Feasible() {
		return hint, nil // fall back to the warm start
	}
	a := Assignment{}
	for _, asg := range sres.Assignments {
		a[orient(NodeID(asg.Vals[0].S), NodeID(asg.Vals[1].S))] = asg.Vals[2].I
	}
	return a, nil
}

// distributedConfig assembles the per-node engine configuration of the
// distributed protocol.
func distributedConfig(p Params, entry programs.Entry) core.Config {
	cfg := entry.Config
	cfg.SolverMaxNodes = p.SolverMaxNodes
	cfg.SolverMaxTime = p.SolverMaxTime
	cfg.SolverIncremental = p.SolverIncremental
	return cfg
}

// seedWirelessNode inserts one grid node's base facts: its channel pool,
// primary users, interface count, and incident links. Also the NodeSpec
// seed hook, so a restarted node rejoins with exactly this state.
func seedWirelessNode(node *core.Node, t *Topology, p Params, n NodeID) error {
	for _, c := range p.Channels {
		if err := node.Insert("availChannel", colog.IntVal(c)); err != nil {
			return err
		}
	}
	for _, pc := range t.PrimaryUsers[n] {
		if err := node.Insert("primaryUser", colog.StringVal(string(n)), colog.IntVal(pc)); err != nil {
			return err
		}
	}
	if err := node.Insert("numInterface", colog.StringVal(string(n)), colog.IntVal(2)); err != nil {
		return err
	}
	for _, nbor := range t.Adj[n] {
		if err := node.Insert("link", colog.StringVal(string(n)), colog.StringVal(string(nbor))); err != nil {
			return err
		}
	}
	return nil
}

// passOrder returns the deterministic per-pass negotiation order.
func passOrder(t *Topology, p Params, pass int) []Link {
	order := append([]Link(nil), t.Links...)
	rand.New(rand.NewSource(p.Seed+int64(pass))).Shuffle(len(order), func(i, j int) {
		order[i], order[j] = order[j], order[i]
	})
	return order
}

// initiatorOf names the link's negotiating endpoint (the larger address)
// and its peer.
func initiatorOf(l Link) (NodeID, NodeID) {
	if string(l.B) > string(l.A) {
		return l.B, l.A
	}
	return l.A, l.B
}

// collectAssignment reads the materialized assign tables.
func collectAssignment(t *Topology, nodes map[NodeID]*core.Node) Assignment {
	a := Assignment{}
	for _, n := range t.Nodes {
		for _, row := range nodes[n].Rows("assign") {
			if NodeID(row[0].S) != n {
				continue
			}
			a[orient(n, NodeID(row[1].S))] = row[2].I
		}
	}
	// Links never negotiated default to the first channel.
	for _, l := range t.Links {
		if _, ok := a[l]; !ok {
			a[l] = 1
		}
	}
	return a
}

func sameAssignment(a, b Assignment) bool {
	if len(a) != len(b) {
		return false
	}
	for k, v := range a {
		if b[k] != v {
			return false
		}
	}
	return true
}

// interferenceAwareWeight is a cross-layer routing metric: a link costs one
// hop plus alpha times its residual interference degree, so routes prefer
// channel-diverse regions.
func interferenceAwareWeight(t *Topology, a Assignment, fMindiff int64, alpha float64, twoHop bool) func(Link) float64 {
	deg := map[Link]float64{}
	for _, l := range t.Links {
		for _, o := range t.Interferers(l, twoHop) {
			if chanInterferes(a[l], a[o], fMindiff) {
				deg[l]++
			}
		}
	}
	return func(l Link) float64 { return 1 + alpha*deg[l] }
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}

// RateSweep runs every protocol of Figure 6 and returns results keyed by
// protocol.
func RateSweep(p Params) (map[Protocol]*Result, error) {
	out := map[Protocol]*Result{}
	for _, proto := range []Protocol{OneInterface, IdenticalCh, Centralized, Distributed, CrossLayer} {
		r, err := RunCluster(p, proto, cluster.Options{})
		if err != nil {
			return nil, fmt.Errorf("wireless: %s: %w", proto, err)
		}
		out[proto] = r
	}
	return out, nil
}
