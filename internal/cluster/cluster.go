// Package cluster is the concurrent multi-node runtime: it hosts N Cologne
// instances over one shared transport and executes their tick/solve/exchange
// rounds as epochs on a worker pool. It is the layer the paper's
// "distributed deployment" claim actually runs on — scenario harnesses
// describe *what* each node does per round (an Item), and the runtime owns
// *how* the round executes: concurrency, message ordering, node lifecycle
// (spawn/stop/restart), failure injection, and per-epoch statistics.
//
// Two execution modes mirror the two transports:
//
//   - Simulation (ModeSim): deliveries are events on a sim.Scheduler. Epochs
//     run items concurrently but stage every outgoing message in a per-item
//     buffer; an epoch barrier then replays the buffers into the simulated
//     network in item order. Because the scheduler never advances during the
//     concurrent phase, the resulting event schedule — and therefore every
//     table, objective, and byte counter — is identical to running the items
//     sequentially. TestClusterBarrierReplaysItemOrder pins the replay
//     order, and the scenario equivalence suites (TestClusterEquivalence in
//     acloud/followsun/wireless) pin whole runs to fingerprints recorded
//     from sequential loops.
//
//   - UDP (ModeUDP): real sockets, free-running rounds. Items still execute
//     on the pool, but messages leave immediately and deliveries interleave
//     with item execution, as they would in the paper's implementation mode.
//
// Failure injection goes through transport.FailureInjector: StopNode drops
// a node (its traffic is lost in flight), RestartNode rebuilds it from its
// NodeSpec, and PartitionLink/HealLink cut individual links. docs/
// distribution.md walks through the design.
package cluster

import (
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"

	"repro/internal/analysis"
	"repro/internal/core"
	"repro/internal/sim"
	"repro/internal/store"
	"repro/internal/transport"
)

// Mode selects the deployment mode of a Runtime.
type Mode int

const (
	// ModeSim runs over the deterministic simulated network (the ns-3
	// role): virtual time, epoch barrier, byte-identical to sequential.
	ModeSim Mode = iota
	// ModeUDP runs over real loopback sockets (the paper's implementation
	// mode): wall-clock time, free-running asynchronous rounds.
	ModeUDP
)

// Options configure a Runtime.
type Options struct {
	// Mode selects simulated or UDP transport (default ModeSim).
	Mode Mode
	// Workers bounds the epoch worker pool; 0 derives from GOMAXPROCS
	// (capped at 8), 1 forces sequential execution. Results in ModeSim are
	// identical at any setting.
	Workers int
	// Latency is the simulated one-way link latency (ModeSim only).
	Latency time.Duration
	// BatchDeltas holds each item's outgoing deltas for the whole item and
	// flushes them as one batch frame per (epoch, destination) — fewer,
	// larger messages with identical contents. Spawn forces the node-level
	// Config.BatchDeltas knob on to match. Message counts differ from
	// unbatched runs, so equivalence tests leave this off.
	BatchDeltas bool
	// CheckpointEvery, when positive, exports a checkpoint of every live
	// node after each N-th epoch (core.Node.ExportCheckpoint: full table
	// state with arrival-order seq numbers, aggregate views, replica
	// mirrors). RestartNode then rebuilds a failed node from its latest
	// checkpoint instead of replaying Seed, and the anti-entropy resync
	// pulls only what the cluster decided since — checkpoint + delta resync
	// instead of full state transfer. See docs/recovery.md.
	CheckpointEvery int
	// AfterEpoch, when non-nil, runs after every epoch's statistics are
	// recorded, outside the epoch critical section — the hook may stop and
	// restart nodes (failure-injection scripts use it to crash a node
	// between epochs). A returned error fails the RunEpoch call.
	AfterEpoch func(r *Runtime, epoch int) error
	// Storage selects the per-node storage backend: "" or "memory" keeps
	// every node's state in RAM (the pre-storage behavior), "disk" also
	// gives each node a write-ahead delta log under its own subdirectory
	// of StorageDir (see internal/store and docs/storage.md).
	// With "disk", RestartNode rebuilds a failed node by replaying its
	// local log before the anti-entropy resync, so resync pulls only the
	// outage window instead of the node's whole history.
	Storage string
	// StorageDir is the root directory for "disk" storage; empty means a
	// temporary directory that Close removes.
	StorageDir string
	// StorageFsync fsyncs the log at every commit point ("disk" only):
	// before a node publishes a decision or sends a message, so nothing
	// visible outside a node can be lost by an OS crash. Off, durability
	// extends to what the OS has flushed — crash-consistent either way,
	// since replay drops any torn tail.
	StorageFsync bool
	// Shards partitions the node address space into key-range shards (see
	// docs/sharding.md). The zero value is one implicit shard, which keeps
	// every run byte-identical to the pre-sharding runtime.
	Shards ShardPlan
	// Aggregation selects how per-shard epoch summaries reach the
	// cluster-level rollup: "" or AggregationOff (none, the default),
	// AggregationRollup (fanout tree, one frame per shard per epoch), or
	// AggregationAllPairs (every shard to every shard — the gossip baseline
	// rollup is measured against).
	Aggregation string
	// AggFanout is the rollup tree's fanout; values below 2 mean 4.
	AggFanout int
	// ShardID and ShardEndpoints configure multi-process operation through
	// NewMultiProcess: ShardEndpoints lists every shard's UDP endpoint
	// (index = shard id) and ShardID selects this process's entry. New
	// ignores both.
	ShardID        int
	ShardEndpoints []string
}

// NodeSpec describes how to build — and after a failure, rebuild — one
// node: its address, analyzed program, engine configuration, and a Seed
// hook that inserts the node's base facts. RestartNode replays the spec, so
// everything a rejoining node must know has to come from Seed or from
// neighbors re-sending state.
type NodeSpec struct {
	Addr    string
	Program *analysis.Result
	Config  core.Config
	// Seed, when non-nil, loads the node's base facts after every (re)spawn.
	Seed func(n *core.Node) error
}

type member struct {
	spec NodeSpec
	node *core.Node
	down bool
	// shard is the node's owning shard under Options.Shards (0 unsharded).
	shard int
	// checkpoint is the node's most recent exported state (nil before the
	// first checkpoint).
	checkpoint []byte
}

// Runtime hosts the cluster: nodes, transport, scheduler, and epoch state.
// Methods are not safe for concurrent use except from within RunEpoch items
// as documented on Item.
type Runtime struct {
	opts    Options
	sched   *sim.Scheduler // nil in ModeUDP
	inner   transport.Transport
	staged  *stagedTransport // nil in ModeUDP
	members map[string]*member
	order   []string

	epoch       int
	costs       map[string]float64 // per-label EWMA of item wall seconds
	history     []EpochStats
	lastWire    map[string]transport.Stats
	retiredWire transport.Stats // counters retired by restart-time resets
	lastResync  map[string]core.ResyncStats
	lastLog     map[string][2]int64 // per-addr (records, bytes) log snapshots
	inEpoch     bool
	lastDrops   int64
	started     time.Time // ModeUDP epoch for Now()

	// Sharding (shard.go, rollup.go): the multi-process transport (nil in
	// single-process modes), the addresses owned by peer processes, the
	// locally-hosted epoch aggregators, and the rollup state they feed.
	shardUDP        *transport.ShardUDP
	remote          map[string]int // addr -> owning shard, multi-process only
	aggs            map[int]*shardAgg
	lastAggWire     map[string]transport.Stats
	rollupMu        sync.Mutex
	rollupLatest    *ShardSummary
	rollupFrameHook func(frame []byte) // test hook: observes encoded rollup frames

	// Disk-storage root: opts.StorageDir, or a lazily created temp dir
	// (ownStoreDir) that Close removes.
	storeDir    string
	ownStoreDir bool

	// programs memoizes the compiled program per analysis result, so every
	// node spawned or rebuilt from one result shares one core.Program; it
	// lives exactly as long as the runtime.
	programs map[*analysis.Result]*core.Program
}

// newRuntime allocates the transport-independent runtime state shared by
// New and NewMultiProcess.
func newRuntime(o Options) *Runtime {
	return &Runtime{
		opts:        o,
		members:     map[string]*member{},
		remote:      map[string]int{},
		costs:       map[string]float64{},
		lastWire:    map[string]transport.Stats{},
		lastResync:  map[string]core.ResyncStats{},
		lastLog:     map[string][2]int64{},
		lastAggWire: map[string]transport.Stats{},
		programs:    map[*analysis.Result]*core.Program{},
	}
}

// startClock begins the wall-clock epoch for free-running (non-simulated)
// modes.
func (r *Runtime) startClock() { r.started = time.Now() }

// New creates an empty cluster runtime.
func New(o Options) *Runtime {
	r := newRuntime(o)
	if o.Mode == ModeUDP {
		r.inner = transport.NewUDP()
		r.startClock()
		r.ensureAggregators()
		return r
	}
	r.sched = sim.NewScheduler()
	r.inner = transport.NewSim(r.sched, o.Latency)
	r.staged = &stagedTransport{inner: r.inner}
	r.ensureAggregators()
	return r
}

// nodeTransport is what spawned nodes register against: the staging wrapper
// in simulation mode, the real transport in UDP mode.
func (r *Runtime) nodeTransport() transport.Transport {
	if r.staged != nil {
		return r.staged
	}
	return r.inner
}

// Spawn builds the node described by spec, registers it on the cluster
// transport, runs spec.Seed, and adds it to the cluster. In multi-process
// mode a spec whose shard belongs to a peer process is recorded as remote
// and skipped — Spawn returns (nil, nil) and cross-shard traffic to it is
// routed over the shard transport.
func (r *Runtime) Spawn(spec NodeSpec) (*core.Node, error) {
	if _, dup := r.members[spec.Addr]; dup {
		return nil, fmt.Errorf("cluster: duplicate node address %q", spec.Addr)
	}
	shard := r.opts.Shards.of(spec.Addr)
	if r.shardUDP != nil && shard != r.opts.ShardID {
		if prev, dup := r.remote[spec.Addr]; dup && prev != shard {
			return nil, fmt.Errorf("cluster: remote node %q re-registered on shard %d (was %d)", spec.Addr, shard, prev)
		}
		r.remote[spec.Addr] = shard
		return nil, nil
	}
	if r.opts.BatchDeltas {
		spec.Config.BatchDeltas = true
	}
	if err := r.attachStorage(&spec); err != nil {
		return nil, fmt.Errorf("cluster: storage for %s: %w", spec.Addr, err)
	}
	prog, err := r.program(spec)
	if err != nil {
		return nil, fmt.Errorf("cluster: spawning %s: %w", spec.Addr, err)
	}
	n, err := prog.NewNode(spec.Addr, spec.Config, r.nodeTransport())
	if err != nil {
		return nil, fmt.Errorf("cluster: spawning %s: %w", spec.Addr, err)
	}
	if spec.Seed != nil {
		if err := spec.Seed(n); err != nil {
			return nil, fmt.Errorf("cluster: seeding %s: %w", spec.Addr, err)
		}
	}
	r.members[spec.Addr] = &member{spec: spec, node: n, shard: shard}
	r.order = append(r.order, spec.Addr)
	return n, nil
}

// program returns the compiled program for spec, compiling it on first
// use. A spec whose Keys or Events differ from the memoized program's gets
// a program of its own, which replaces the memo entry.
func (r *Runtime) program(spec NodeSpec) (*core.Program, error) {
	if p := r.programs[spec.Program]; p != nil && p.Accepts(spec.Config) {
		return p, nil
	}
	p, err := core.Compile(spec.Program, spec.Config.Keys, spec.Config.Events)
	if err != nil {
		return nil, err
	}
	r.programs[spec.Program] = p
	return p, nil
}

// SpawnAll builds and registers every node first, then runs the Seed hooks
// in spec order. Use it when seed facts ship to other cluster nodes (rule
// localization replicates base facts to neighbors): with Spawn, a fact
// could be addressed to a node that is not registered yet.
func (r *Runtime) SpawnAll(specs []NodeSpec) error {
	seeds := make([]func(n *core.Node) error, len(specs))
	nodes := make([]*core.Node, len(specs))
	for i := range specs {
		spec := specs[i]
		seeds[i], spec.Seed = spec.Seed, nil
		n, err := r.Spawn(spec)
		if err != nil {
			return err
		}
		if n == nil {
			continue // remote spec (multi-process mode): a peer seeds it
		}
		// Keep the original Seed in the stored spec so RestartNode replays it.
		r.members[spec.Addr].spec.Seed = seeds[i]
		nodes[i] = n
	}
	for i, seed := range seeds {
		if seed == nil || nodes[i] == nil {
			continue
		}
		if err := seed(nodes[i]); err != nil {
			return fmt.Errorf("cluster: seeding %s: %w", specs[i].Addr, err)
		}
	}
	return nil
}

// Node returns the live instance at addr, or nil when unknown or stopped.
func (r *Runtime) Node(addr string) *core.Node {
	m := r.members[addr]
	if m == nil || m.down {
		return nil
	}
	return m.node
}

// Addrs lists the cluster's node addresses in spawn order, including
// stopped nodes.
func (r *Runtime) Addrs() []string { return append([]string(nil), r.order...) }

// Scheduler returns the simulation scheduler (nil in ModeUDP).
func (r *Runtime) Scheduler() *sim.Scheduler { return r.sched }

// Now returns the cluster's elapsed time: virtual time in simulation
// mode, wall-clock time since New in UDP mode. Use it instead of
// Scheduler().Now() in code that runs in either mode.
func (r *Runtime) Now() time.Duration {
	if r.sched != nil {
		return r.sched.Now()
	}
	return time.Since(r.started)
}

// Transport returns the underlying transport, for byte counters and
// latency overrides.
func (r *Runtime) Transport() transport.Transport { return r.inner }

// Advance moves the cluster forward by d: simulated runs execute all
// network events due within d of virtual time; UDP runs sleep, letting the
// sockets drain.
func (r *Runtime) Advance(d time.Duration) {
	if r.sched != nil {
		r.sched.Run(r.sched.Now() + d)
		return
	}
	time.Sleep(d)
}

// Settle drains the network: simulated runs execute events until none
// remain (bounded to guard against runaway loops), UDP runs sleep briefly.
func (r *Runtime) Settle() {
	if r.sched != nil {
		r.sched.RunUntilIdle(1_000_000)
		return
	}
	time.Sleep(50 * time.Millisecond)
}

// attachStorage opens the node's storage backend per Options.Storage and
// installs it in the spec's Config. The opened Store lives in the stored
// spec, so a restart hands the same backend — the node's log and table
// files — back to the rebuilt instance.
func (r *Runtime) attachStorage(spec *NodeSpec) error {
	switch r.opts.Storage {
	case "", "memory":
		return nil // per-node private memory backend, opened by the node
	case "disk":
	default:
		return fmt.Errorf("unknown storage kind %q (want memory or disk)", r.opts.Storage)
	}
	if spec.Config.Storage != nil {
		return nil // caller supplied a backend; keep it
	}
	if r.storeDir == "" {
		if r.opts.StorageDir != "" {
			r.storeDir = r.opts.StorageDir
		} else {
			dir, err := os.MkdirTemp("", "cologne-store-")
			if err != nil {
				return err
			}
			r.storeDir = dir
			r.ownStoreDir = true
		}
	}
	st, err := store.Open("disk", filepath.Join(r.storeDir, sanitizeAddr(spec.Addr)), r.opts.StorageFsync)
	if err != nil {
		return err
	}
	spec.Config.Storage = st
	return nil
}

// sanitizeAddr maps a node address onto filesystem-safe characters (UDP
// addresses contain colons).
func sanitizeAddr(addr string) string {
	out := make([]byte, len(addr))
	for i := 0; i < len(addr); i++ {
		c := addr[i]
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9', c == '-', c == '_', c == '.':
			out[i] = c
		default:
			out[i] = '_'
		}
	}
	return string(out)
}

// Close releases transport resources (UDP sockets), closes every node's
// storage backend, and removes the storage root if the runtime created it.
func (r *Runtime) Close() error {
	err := r.inner.Close()
	for _, m := range r.members {
		if st := m.spec.Config.Storage; st != nil {
			if cerr := st.Close(); cerr != nil && err == nil {
				err = cerr
			}
		}
	}
	if r.ownStoreDir && r.storeDir != "" {
		if rerr := os.RemoveAll(r.storeDir); rerr != nil && err == nil {
			err = rerr
		}
	}
	return err
}
