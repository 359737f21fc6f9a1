// Command cologne runs a Colog program: parse, analyze, load facts,
// optionally invoke the constraint solver, and dump the resulting tables.
// It is the quickest way to experiment with the language:
//
//	cologne -solve program.colog
//	cologne -param max_migrates=3 -solve -dump assign program.colog
//
// By default the program runs on a single Cologne instance. With
// -cluster-mode, a distributed program (one whose facts carry @-location
// attributes) runs on one instance per distinct location over the
// concurrent cluster runtime — simulated network or real UDP sockets:
//
//	cologne -cluster-mode sim -solve program.colog
//	cologne -cluster-mode udp -cluster-workers 4 -cluster-batch -solve program.colog
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/analysis"
	"repro/internal/cluster"
	"repro/internal/colog"
	"repro/internal/core"
	"repro/internal/profiling"
	"repro/internal/store"
)

// cliOptions holds every cologne flag; registerFlags wires them onto a
// FlagSet so tests can exercise the flag surface without running main.
type cliOptions struct {
	solve        *bool
	dump         *string
	maxTime      *time.Duration
	maxNodes     *int64
	restarts     *int
	fixpoint     *bool
	incr         *bool
	warm         *bool
	report       *bool
	clusterMode  *string
	clusterWkrs  *int
	clusterLat   *time.Duration
	clusterBat   *bool
	clusterCkpt  *int
	clusterRsnc  *bool
	clusterSched *string
	storeKind    *string
	storeDir     *string
	storeFsync   *bool
	shardCount   *int
	shardAgg     *string
	shardID      *int
	shardPeers   *string
	profile      *string
	params       paramFlags
}

func registerFlags(fs *flag.FlagSet) *cliOptions {
	o := &cliOptions{
		solve:    fs.Bool("solve", false, "invoke the constraint solver after loading facts"),
		dump:     fs.String("dump", "", "comma-separated tables to print (default: all non-empty)"),
		maxTime:  fs.Duration("solver-max-time", 10*time.Second, "SOLVER_MAX_TIME budget per COP execution"),
		maxNodes: fs.Int64("solver-max-nodes", 0, "search node budget per COP execution (0 = unlimited)"),
		restarts: fs.Int("solver-restarts", 0,
			"restart the search N times with geometrically growing node limits;\nsaved phases feed later runs' warm-start hints (0 = no restarts)"),
		fixpoint: fs.Bool("solver-fixpoint", false,
			"drain the propagator queue to fixpoint after each assignment\n(stronger pruning; same optima, fewer search nodes)"),
		incr: fs.Bool("solver-incremental", false,
			"keep the grounded model between solves and re-ground only what\nchanged, patching constants in place (same solutions, less work)"),
		warm: fs.Bool("solver-warmstart", false,
			"seed each solve's value ordering from the previous solve's\nmaterialized assignments (changes incumbents under budgets)"),
		report: fs.Bool("report", false, "print the static analysis report before running"),
		clusterMode: fs.String("cluster-mode", "off",
			"run a distributed program on one instance per fact location:\n'off' (single node), 'sim' (simulated network, deterministic), or\n'udp' (real loopback sockets)"),
		clusterWkrs: fs.Int("cluster-workers", 0,
			"cluster epoch worker pool size; 0 derives from GOMAXPROCS, 1 forces\nsequential execution (sim-mode results are identical at any setting)"),
		clusterLat: fs.Duration("cluster-latency", 2*time.Millisecond,
			"one-way link latency of the simulated cluster network"),
		clusterBat: fs.Bool("cluster-batch", false,
			"batch outgoing deltas per (epoch, destination) into single frames:\nfewer messages, identical delivery contents"),
		clusterCkpt: fs.Int("cluster-checkpoint-every", 0,
			"checkpoint every live node's full table state (arrival-order seqs\nincluded) after each N-th epoch; a restarted node restores its latest\ncheckpoint instead of reseeding (0 = no periodic checkpoints)"),
		clusterRsnc: fs.Bool("cluster-resync", true,
			"run the automatic anti-entropy digest exchange when a node\nrestarts, pulling the rows it missed while down (see docs/recovery.md)"),
		clusterSched: fs.String("cluster-scheduling", "",
			"epoch item scheduling policy: 'cost' (default; start\npredicted-expensive items first) or 'fifo' (item order); results are\nidentical either way"),
		storeKind: fs.String("store", "memory",
			"per-node storage backend: 'memory' (tables live in process memory)\nor 'disk' (tables still live in memory, and every visible transition\nalso goes through an append-only write-ahead log; a restarted cluster\nnode replays its local log before resyncing — see docs/storage.md)"),
		storeDir: fs.String("store-dir", "",
			"directory for -store disk data, one subdirectory per node\n(default: a temporary directory removed on exit)"),
		storeFsync: fs.Bool("store-fsync", false,
			"fsync the write-ahead log at each commit point (before a decision\nis returned or a message is sent): power-loss durability for\neverything published, one sync per tick (default: rely on the OS\npage cache; process crashes still lose nothing)"),
		shardCount: fs.Int("shard-count", 0,
			"partition a clustered run's nodes into N key-range shards and\naggregate per-epoch summaries hierarchically (see docs/sharding.md);\n0 or 1 leaves the run unsharded"),
		shardAgg: fs.String("shard-agg", "",
			"epoch summary aggregation across shards: 'off' (default), 'rollup'\n(fanout tree, one frame per shard per epoch), or 'allpairs'\n(every shard broadcasts to every other; ablation baseline)"),
		shardID: fs.Int("shard-id", 0,
			"this process's shard in a multi-process deployment (used with\n-shard-peers; each process owns the nodes its shard covers)"),
		shardPeers: fs.String("shard-peers", "",
			"comma-separated UDP endpoints of every shard process, index =\nshard id; when set, cologne runs as one process of a multi-process\nsharded deployment and spawns only its own shard's engines"),
		profile: fs.String("profile", "",
			"write a CPU profile to <prefix>.cpu.pprof and a heap snapshot to\n<prefix>.heap.pprof for `go tool pprof` (empty = off)"),
	}
	fs.Var(&o.params, "param", "bind a parameter, e.g. -param max_migrates=3 (repeatable)")
	return o
}

// config validates the solver flags and assembles the node configuration.
func (o *cliOptions) config() (core.Config, error) {
	if m := *o.clusterMode; m != "off" && m != "sim" && m != "udp" {
		return core.Config{}, fmt.Errorf("unknown -cluster-mode %q (want off, sim, or udp)", m)
	}
	if s := *o.storeKind; s != "" && s != "memory" && s != "disk" {
		return core.Config{}, fmt.Errorf("unknown -store %q (want memory or disk)", s)
	}
	switch *o.shardAgg {
	case "", cluster.AggregationOff, cluster.AggregationRollup, cluster.AggregationAllPairs:
	default:
		return core.Config{}, fmt.Errorf("unknown -shard-agg %q (want off, rollup, or allpairs)", *o.shardAgg)
	}
	if *o.shardCount < 0 {
		return core.Config{}, fmt.Errorf("-shard-count must be >= 0")
	}
	if *o.shardID != 0 && *o.shardPeers == "" {
		return core.Config{}, fmt.Errorf("-shard-id needs -shard-peers (the shard endpoint list)")
	}
	if *o.shardPeers != "" && *o.storeKind == "disk" {
		return core.Config{}, fmt.Errorf("-shard-peers supports -store memory only")
	}
	return core.Config{
		Params:            o.params.vals,
		SolverMaxTime:     *o.maxTime,
		SolverMaxNodes:    *o.maxNodes,
		SolverPropagate:   true,
		SolverFixpoint:    *o.fixpoint,
		SolverRestarts:    *o.restarts,
		SolverIncremental: *o.incr,
		SolverWarmStart:   *o.warm,
	}, nil
}

func main() {
	fs := flag.NewFlagSet("cologne", flag.ExitOnError)
	opts := registerFlags(fs)
	fs.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: cologne [flags] program.colog\n")
		fs.PrintDefaults()
	}
	fs.Parse(os.Args[1:])
	if fs.NArg() != 1 {
		fs.Usage()
		os.Exit(2)
	}

	src, err := os.ReadFile(fs.Arg(0))
	if err != nil {
		fail("%v", err)
	}
	prog, err := colog.Parse(string(src))
	if err != nil {
		fail("%v", err)
	}
	res, err := analysis.Analyze(prog, opts.params.vals)
	if err != nil {
		fail("%v", err)
	}
	if *opts.report {
		printReport(res)
	}
	cfg, err := opts.config()
	if err != nil {
		fail("%v", err)
	}
	stopProf, err := profiling.Start(*opts.profile)
	if err != nil {
		fail("%v", err)
	}
	defer func() {
		if err := stopProf(); err != nil {
			fmt.Fprintf(os.Stderr, "cologne: %v\n", err)
		}
	}()
	if *opts.shardPeers != "" {
		if err := runShardProcess(opts, res, cfg); err != nil {
			fail("%v", err)
		}
		return
	}
	if *opts.clusterMode != "off" {
		if err := runCluster(opts, res, cfg); err != nil {
			fail("%v", err)
		}
		return
	}
	if *opts.storeKind == "disk" {
		dir := *opts.storeDir
		if dir == "" {
			tmp, err := os.MkdirTemp("", "cologne-store-")
			if err != nil {
				fail("%v", err)
			}
			defer os.RemoveAll(tmp)
			dir = tmp
		}
		st, err := store.Open("disk", filepath.Join(dir, "local"), *opts.storeFsync)
		if err != nil {
			fail("%v", err)
		}
		defer st.Close()
		cfg.Storage = st
	}
	node, err := core.NewNode("local", res, cfg, nil)
	if err != nil {
		fail("%v", err)
	}
	if *opts.solve {
		sres, err := node.Solve(core.SolveOptions{})
		if err != nil {
			fail("solve: %v", err)
		}
		fmt.Printf("solve: status=%s objective=%g vars=%d constraints=%d nodes=%d time=%v\n",
			sres.Status, sres.Objective, sres.NumVars, sres.NumCons,
			sres.Stats.Nodes, sres.Stats.Elapsed.Round(time.Microsecond))
	}
	printTables(node, *opts.dump)
}

// clusterAddrs collects the distinct location values of the program's
// facts: the node set a clustered run spawns.
func clusterAddrs(res *analysis.Result) []string {
	seen := map[string]bool{}
	var addrs []string
	for _, f := range res.Program.Facts {
		ti := res.Tables[f.Atom.Pred]
		if ti == nil || ti.LocCol < 0 || ti.LocCol >= len(f.Atom.Args) {
			continue
		}
		ct, ok := f.Atom.Args[ti.LocCol].(*colog.ConstTerm)
		if !ok {
			continue
		}
		addr := ct.Val.S
		if ct.Val.Kind != colog.KindString {
			addr = ct.Val.String()
		}
		if !seen[addr] {
			seen[addr] = true
			addrs = append(addrs, addr)
		}
	}
	sort.Strings(addrs)
	return addrs
}

// runCluster executes the program on one instance per fact location over
// the cluster runtime, solving every node concurrently when -solve is set.
func runCluster(opts *cliOptions, res *analysis.Result, cfg core.Config) error {
	addrs := clusterAddrs(res)
	if len(addrs) == 0 {
		return fmt.Errorf("cluster mode needs @-located facts to derive the node set (see docs/distribution.md)")
	}
	mode := cluster.ModeSim
	if *opts.clusterMode == "udp" {
		mode = cluster.ModeUDP
	}
	rt := cluster.New(cluster.Options{
		Mode:            mode,
		Workers:         *opts.clusterWkrs,
		Scheduling:      *opts.clusterSched,
		Latency:         *opts.clusterLat,
		BatchDeltas:     *opts.clusterBat,
		CheckpointEvery: *opts.clusterCkpt,
		DisableResync:   !*opts.clusterRsnc,
		Storage:         *opts.storeKind,
		StorageDir:      *opts.storeDir,
		StorageFsync:    *opts.storeFsync,
		Shards:          cluster.IndexRanges(addrs, *opts.shardCount),
		Aggregation:     *opts.shardAgg,
	})
	defer rt.Close()
	// Facts load through the Seed hook, which SpawnAll defers until every
	// node is registered: a base fact can fire a localized rule whose head
	// ships to a peer, so loading at construction would race registration.
	cfg.DeferFacts = true
	specs := make([]cluster.NodeSpec, len(addrs))
	for i, addr := range addrs {
		specs[i] = cluster.NodeSpec{
			Addr: addr, Program: res, Config: cfg,
			Seed: func(n *core.Node) error { return n.InsertProgramFacts() },
		}
	}
	if err := rt.SpawnAll(specs); err != nil {
		return err
	}
	rt.Settle()
	if *opts.solve {
		items := make([]cluster.Item, len(addrs))
		for i, addr := range addrs {
			node := rt.Node(addr)
			items[i] = cluster.Item{
				Label: "solve " + addr,
				Nodes: []string{addr},
				Run:   func() (*core.SolveResult, error) { return node.Solve(core.SolveOptions{}) },
			}
		}
		st, err := rt.RunEpoch(items)
		if err != nil {
			return err
		}
		rt.Settle()
		fmt.Printf("cluster: nodes=%d solves=%d solver-nodes=%d msgs=%d bytes=%d\n",
			len(addrs), st.Solves, st.SolverNodes, rt.TotalWire().MsgsSent, rt.TotalWire().BytesSent)
		fmt.Printf("epoch: exec=%v ground=%v solve=%v barrier=%v longest=%q (%v)\n",
			st.ExecWall.Round(time.Microsecond), st.GroundWall.Round(time.Microsecond),
			st.SolveWall.Round(time.Microsecond), st.BarrierWall.Round(time.Microsecond),
			st.LongestItem, st.LongestWall.Round(time.Microsecond))
	}
	printClusterTables(rt, addrs, *opts.dump)
	return nil
}

// shardBarrier is the minimal control plane of a multi-process cologne
// run: processes mark phases ("hello", "seeded", "done") with rebroadcast
// control frames until every shard has been seen in that phase.
type shardBarrier struct {
	mu   sync.Mutex
	seen map[string]map[int]bool
}

func (b *shardBarrier) handle(req []byte) []byte {
	fields := strings.Fields(string(req))
	if len(fields) != 2 {
		return nil
	}
	id, err := strconv.Atoi(fields[1])
	if err != nil {
		return nil
	}
	b.mu.Lock()
	m := b.seen[fields[0]]
	if m == nil {
		m = map[int]bool{}
		b.seen[fields[0]] = m
	}
	m[id] = true
	b.mu.Unlock()
	return nil
}

func (b *shardBarrier) count(name string) int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return len(b.seen[name])
}

// runShardProcess executes the program as one process of a multi-process
// sharded deployment (-shard-id / -shard-peers): the node set is derived
// from the program's fact locations exactly as in single-process cluster
// mode, partitioned into key ranges, and this process spawns only the
// engines of its own shard. Fact loading is deferred behind a hello
// barrier so cross-shard deltas never race a peer's bring-up; every
// process then runs the same single solve epoch, and per-shard summaries
// fold across processes by the configured aggregation (default rollup).
func runShardProcess(opts *cliOptions, res *analysis.Result, cfg core.Config) error {
	addrs := clusterAddrs(res)
	if len(addrs) == 0 {
		return fmt.Errorf("sharded mode needs @-located facts to derive the node set (see docs/sharding.md)")
	}
	endpoints := strings.Split(*opts.shardPeers, ",")
	agg := *opts.shardAgg
	if agg == "" {
		agg = cluster.AggregationRollup
	}
	cfg.DeferFacts = true
	rt, err := cluster.NewMultiProcess(cluster.Options{
		Workers:        *opts.clusterWkrs,
		Scheduling:     *opts.clusterSched,
		BatchDeltas:    *opts.clusterBat,
		Shards:         cluster.IndexRanges(addrs, len(endpoints)),
		Aggregation:    agg,
		ShardID:        *opts.shardID,
		ShardEndpoints: endpoints,
	})
	if err != nil {
		return err
	}
	defer rt.Close()
	bar := &shardBarrier{seen: map[string]map[int]bool{}}
	tr := rt.ShardTransport()
	tr.SetControlHandler(bar.handle)

	var local []string
	for _, addr := range addrs {
		node, err := rt.Spawn(cluster.NodeSpec{Addr: addr, Program: res, Config: cfg})
		if err != nil {
			return err
		}
		if node != nil {
			local = append(local, addr)
		}
	}
	barrier := func(name string) error {
		deadline := time.Now().Add(30 * time.Second)
		for bar.count(name) < len(endpoints) {
			for s := range endpoints {
				tr.SendControl(s, []byte(fmt.Sprintf("%s %d", name, *opts.shardID))) //nolint:errcheck — rebroadcast heals drops
			}
			if time.Now().After(deadline) {
				return fmt.Errorf("shard %d: %s barrier timed out (%d/%d shards up)",
					*opts.shardID, name, bar.count(name), len(endpoints))
			}
			time.Sleep(20 * time.Millisecond)
		}
		return nil
	}
	const settle = 200 * time.Millisecond

	// Every shard's endpoint and node registrations are up before any
	// shard loads facts; then every shard is fully seeded before anyone
	// solves against the replicated state.
	if err := barrier("hello"); err != nil {
		return err
	}
	for _, addr := range local {
		if err := rt.Node(addr).InsertProgramFacts(); err != nil {
			return fmt.Errorf("seeding %s: %w", addr, err)
		}
	}
	if err := barrier("seeded"); err != nil {
		return err
	}
	time.Sleep(settle)

	if *opts.solve {
		items := make([]cluster.Item, len(local))
		for i, addr := range local {
			node := rt.Node(addr)
			items[i] = cluster.Item{
				Label: "solve " + addr,
				Nodes: []string{addr},
				Run:   func() (*core.SolveResult, error) { return node.Solve(core.SolveOptions{}) },
			}
		}
		st, err := rt.RunEpoch(items)
		if err != nil {
			return err
		}
		time.Sleep(settle)
		msgs, bytes := tr.RemoteWire()
		fmt.Printf("shard %d/%d: nodes=%d solves=%d solver-nodes=%d remote-msgs=%d remote-bytes=%d\n",
			*opts.shardID, len(endpoints), len(local), st.Solves, st.SolverNodes, msgs, bytes)
		if sum, ok := rt.ClusterSummary(); ok {
			fmt.Printf("cluster: shards=%d members=%d solves=%d solver-nodes=%d objective=%g\n",
				sum.Folded, sum.Members, sum.Solves, sum.SolverNodes, sum.Objective)
		}
	}
	if err := barrier("done"); err != nil {
		return err
	}
	time.Sleep(settle)
	printClusterTables(rt, local, *opts.dump)
	return nil
}

// printClusterTables prints the union of every node's tables as facts,
// deduplicated (replicated rows appear on several nodes) and sorted.
func printClusterTables(rt *cluster.Runtime, addrs []string, dump string) {
	var names []string
	if dump != "" {
		names = strings.Split(dump, ",")
	} else {
		seen := map[string]bool{}
		for _, addr := range addrs {
			for _, name := range rt.Node(addr).TableNames() {
				if !seen[name] {
					seen[name] = true
					names = append(names, name)
				}
			}
		}
		sort.Strings(names)
	}
	for _, name := range names {
		lineSet := map[string]bool{}
		var lines []string
		for _, addr := range addrs {
			for _, row := range rt.Node(addr).Rows(name) {
				parts := make([]string, len(row))
				for i, v := range row {
					parts[i] = v.String()
				}
				line := fmt.Sprintf("%s(%s).", name, strings.Join(parts, ","))
				if !lineSet[line] {
					lineSet[line] = true
					lines = append(lines, line)
				}
			}
		}
		sort.Strings(lines)
		for _, line := range lines {
			fmt.Println(line)
		}
	}
}

func printReport(res *analysis.Result) {
	fmt.Printf("distributed: %v\n", res.Distributed)
	fmt.Printf("tables:\n")
	var names []string
	for n := range res.Tables {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		ti := res.Tables[n]
		kind := "regular"
		if ti.IsSolver() {
			kind = "solver"
		}
		fmt.Printf("  %-24s arity=%d loc=%d %s\n", n, ti.Arity, ti.LocCol, kind)
	}
	fmt.Printf("rules:\n")
	for i, r := range res.Program.Rules {
		fmt.Printf("  [%-17s] %s\n", res.Classes[i], r)
	}
	fmt.Println()
}

func printTables(node *core.Node, dump string) {
	var names []string
	if dump != "" {
		names = strings.Split(dump, ",")
	} else {
		names = node.TableNames()
		sort.Strings(names)
	}
	for _, name := range names {
		rows := node.Rows(name)
		if len(rows) == 0 && dump == "" {
			continue
		}
		for _, row := range rows {
			parts := make([]string, len(row))
			for i, v := range row {
				parts[i] = v.String()
			}
			fmt.Printf("%s(%s).\n", name, strings.Join(parts, ","))
		}
	}
}

type paramFlags struct {
	vals map[string]colog.Value
}

func (p *paramFlags) String() string { return "" }

func (p *paramFlags) Set(s string) error {
	k, v, ok := strings.Cut(s, "=")
	if !ok {
		return fmt.Errorf("expected name=value, got %q", s)
	}
	if p.vals == nil {
		p.vals = map[string]colog.Value{}
	}
	if iv, err := strconv.ParseInt(v, 10, 64); err == nil {
		p.vals[k] = colog.IntVal(iv)
	} else if fv, err := strconv.ParseFloat(v, 64); err == nil {
		p.vals[k] = colog.FloatVal(fv)
	} else {
		p.vals[k] = colog.StringVal(v)
	}
	return nil
}

func fail(format string, args ...interface{}) {
	fmt.Fprintf(os.Stderr, "cologne: "+format+"\n", args...)
	os.Exit(1)
}
