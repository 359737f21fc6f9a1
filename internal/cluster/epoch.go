package cluster

import (
	"fmt"
	"math"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/transport"
)

// Item is one unit of epoch work: a closure driving inserts, deletes, and
// at most one solve against the nodes it names. Items of one epoch run
// concurrently, so they must name every node they touch in Nodes and two
// items of the same epoch may not share a node — RunEpoch rejects overlaps,
// because overlap is exactly what would make the concurrent schedule
// diverge from the sequential one. Run may return the item's SolveResult
// for the epoch statistics (nil is fine).
type Item struct {
	// Label identifies the item in errors ("negotiate dc3-dc1") and keys
	// the cost-aware scheduler's history: items that keep the same label
	// across epochs are predicted from their past run times.
	Label string
	// Nodes lists every node address Run touches.
	Nodes []string
	// Run does the work. It must only touch the listed nodes.
	Run func() (*core.SolveResult, error)
}

// Scheduling policies for Options.Scheduling.
const (
	// SchedulingCost starts items in descending predicted-cost order: an
	// exponentially weighted average of each label's past wall time, with
	// never-seen labels first (their cost is unknown, so assume the worst).
	// Starting the long poles early minimizes the epoch's makespan when
	// item costs are skewed. This is the default.
	SchedulingCost = "cost"
	// SchedulingFIFO dispatches items in slice order, the pre-scheduler
	// behavior.
	SchedulingFIFO = "fifo"
)

// RunEpoch executes one epoch of items on the worker pool and returns its
// statistics.
//
// In ModeSim the epoch is deterministic: outgoing messages stage in
// per-item buffers while items run concurrently, and the epoch barrier
// replays them into the simulated network in item order. No scheduler event
// runs during the concurrent phase, so the post-barrier event schedule is
// exactly what sequential item execution would have produced — regardless
// of worker count or scheduling policy, which only change when items
// *start*, never how their output is ordered. In ModeUDP items free-run:
// messages leave as they are produced and deliveries interleave with
// execution.
//
// The returned stats cover the wire traffic since the previous epoch ended;
// traffic triggered by a later Advance/Settle is folded into this epoch's
// History entry when the next epoch (or History) closes the window.
func (r *Runtime) RunEpoch(items []Item) (EpochStats, error) {
	if r.inEpoch {
		return EpochStats{}, fmt.Errorf("cluster: RunEpoch is not reentrant")
	}
	order, err := r.itemOrder(items)
	if err != nil {
		return EpochStats{}, err
	}
	aggMode, err := r.aggKind()
	if err != nil {
		return EpochStats{}, err
	}
	owner := map[string]int{}
	for i, it := range items {
		if len(it.Nodes) == 0 {
			return EpochStats{}, fmt.Errorf("cluster: item %d (%s) names no nodes", i, it.Label)
		}
		for _, addr := range it.Nodes {
			m := r.members[addr]
			if m == nil {
				if shard, remote := r.remote[addr]; remote {
					return EpochStats{}, fmt.Errorf("cluster: item %d (%s) names node %q owned by shard %d (this process is shard %d)",
						i, it.Label, addr, shard, r.opts.ShardID)
				}
				return EpochStats{}, fmt.Errorf("cluster: item %d (%s) names unknown node %q", i, it.Label, addr)
			}
			if m.down {
				return EpochStats{}, fmt.Errorf("cluster: item %d (%s) names stopped node %q", i, it.Label, addr)
			}
			if prev, clash := owner[addr]; clash {
				return EpochStats{}, fmt.Errorf("cluster: items %d and %d both touch node %q", prev, i, addr)
			}
			owner[addr] = i
		}
	}
	r.inEpoch = true
	defer func() { r.inEpoch = false }()
	r.closeWindow() // attribute settle traffic to the previous epoch

	if r.staged != nil {
		r.staged.begin(owner, len(items))
	}
	results := make([]*core.SolveResult, len(items))
	errs := make([]error, len(items))
	itemWall := make([]time.Duration, len(items))
	flushWall := make([]time.Duration, len(items))
	execStart := time.Now()
	r.runPool(order, func(i int) {
		itemStart := time.Now()
		it := &items[i]
		if r.opts.BatchDeltas {
			for _, addr := range it.Nodes {
				r.members[addr].node.HoldOutbox(true)
			}
		}
		results[i], errs[i] = it.Run()
		if r.opts.BatchDeltas {
			flushStart := time.Now()
			for _, addr := range it.Nodes {
				n := r.members[addr].node
				n.HoldOutbox(false)
				if err := n.FlushOutbox(); err != nil && errs[i] == nil {
					errs[i] = err
				}
			}
			flushWall[i] = time.Since(flushStart)
		}
		itemWall[i] = time.Since(itemStart)
	})
	execWall := time.Since(execStart)
	var barrierWall time.Duration
	if r.staged != nil {
		barrierStart := time.Now()
		err := r.staged.commit()
		barrierWall = time.Since(barrierStart)
		if err != nil {
			for i := range errs {
				if errs[i] == nil {
					errs[i] = err
					break
				}
			}
		}
	}

	st := EpochStats{
		Epoch:       r.epoch,
		Items:       len(items),
		ExecWall:    execWall,
		BarrierWall: barrierWall,
	}
	r.epoch++
	var firstErr error
	for i, res := range results {
		if errs[i] != nil && firstErr == nil {
			firstErr = fmt.Errorf("cluster: item %d (%s): %w", i, items[i].Label, errs[i])
		}
		st.FlushWall += flushWall[i]
		if itemWall[i] > st.LongestWall {
			st.LongestWall = itemWall[i]
			st.LongestItem = items[i].Label
		}
		r.observeCost(items[i].Label, itemWall[i])
		if res == nil {
			continue
		}
		st.Solves++
		st.SolverNodes += res.Stats.Nodes
		st.GroundWall += res.GroundWall
		st.SolveWall += res.Stats.Elapsed
		if res.Ground != nil {
			st.ConstsPatched += res.Ground.ConstsPatched
		}
	}
	var perShard []transport.Stats
	if aggMode != AggregationOff {
		perShard = make([]transport.Stats, r.opts.Shards.shardCount())
	}
	d, drops := r.wireDelta(perShard)
	st.MsgsSent, st.BytesSent = d.MsgsSent, d.BytesSent
	st.MsgsDropped = drops
	st.ResyncRows, st.ResyncBytes = r.resyncDelta()
	st.LogRecords, st.LogBytes = r.logDelta()
	st.Shards = r.opts.Shards.shardCount()
	r.history = append(r.history, st)

	// Per-shard epoch summaries feed the hierarchical rollup. Their
	// aggregator traffic is windowed like settle traffic: folded into this
	// epoch's history entry when the window next closes.
	if aggMode != AggregationOff {
		r.emitShardSummaries(r.shardSummaries(st, items, results, perShard))
	}

	// Periodic checkpointing: every node's quiescent post-epoch state
	// becomes the restart point for failures until the next checkpoint.
	if n := r.opts.CheckpointEvery; n > 0 && (st.Epoch+1)%n == 0 {
		if err := r.checkpointAll(); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	// The AfterEpoch hook runs outside the epoch critical section so
	// failure scripts can stop and restart nodes from it.
	r.inEpoch = false
	if r.opts.AfterEpoch != nil {
		if err := r.opts.AfterEpoch(r, st.Epoch); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return st, firstErr
}

// itemOrder resolves the scheduling policy into the order items are handed
// to the worker pool. Results are order-independent (the barrier replays
// output in item order), so this only shapes the epoch's makespan.
func (r *Runtime) itemOrder(items []Item) ([]int, error) {
	order := make([]int, len(items))
	for i := range order {
		order[i] = i
	}
	switch r.opts.Scheduling {
	case SchedulingFIFO:
		return order, nil
	case "", SchedulingCost:
	default:
		return nil, fmt.Errorf("cluster: unknown scheduling policy %q (want %q or %q)",
			r.opts.Scheduling, SchedulingCost, SchedulingFIFO)
	}
	cost := make([]float64, len(items))
	for i, it := range items {
		if c, ok := r.costs[it.Label]; ok {
			cost[i] = c
		} else {
			cost[i] = math.Inf(1)
		}
	}
	// Stable sort on an identity permutation: equal costs keep item order.
	sort.SliceStable(order, func(a, b int) bool { return cost[order[a]] > cost[order[b]] })
	return order, nil
}

// costEWMAAlpha weights the latest observation of a label's wall time; high
// enough to track phase changes (a scenario switching from cheap ticks to
// expensive negotiation rounds), low enough to smooth solver noise.
const costEWMAAlpha = 0.4

// observeCost folds one finished item's wall time into its label's cost
// estimate. Called from the stats fold, never concurrently.
func (r *Runtime) observeCost(label string, wall time.Duration) {
	sec := wall.Seconds()
	if old, ok := r.costs[label]; ok {
		sec = (1-costEWMAAlpha)*old + costEWMAAlpha*sec
	}
	r.costs[label] = sec
}

// workerCap resolves Options.Workers to the epoch pool size, before the
// per-epoch clamp to the item count.
func (r *Runtime) workerCap() int {
	workers := r.opts.Workers
	if workers == 0 {
		workers = runtime.GOMAXPROCS(0)
		if workers > 8 {
			workers = 8
		}
	}
	if workers < 1 {
		workers = 1
	}
	return workers
}

// runPool executes fn over the scheduled order on at most Options.Workers
// goroutines. Workers claim the next index with an atomic cursor — no
// dispatch channel, no handoff latency between items: a worker finishing a
// cheap item immediately claims the next-most-expensive remaining one,
// which is work stealing with a shared deque of one producer.
func (r *Runtime) runPool(order []int, fn func(int)) {
	n := len(order)
	workers := r.workerCap()
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for _, i := range order {
			fn(i)
		}
		return
	}
	var cursor atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				k := cursor.Add(1) - 1
				if k >= int64(n) {
					return
				}
				fn(order[k])
			}
		}()
	}
	wg.Wait()
}

// stagedMsg is one outgoing message buffered during the concurrent phase.
// The payload bytes live in the owning item's arena at [start:end) — the
// sender's buffer is copied at Send time, so core nodes are free to recycle
// their encode buffers the moment Send returns (the transport payload
// contract), and a whole item's staged traffic is two reusable allocations
// instead of one retained buffer per message.
type stagedMsg struct {
	from, to   string
	start, end int
}

// itemBuf holds one item's staged messages and their payload arena. Both
// slices are reset to length zero and reused across epochs.
type itemBuf struct {
	msgs  []stagedMsg
	arena []byte
}

// maxStagedArena caps how much payload memory an item slot keeps across
// epochs; an unusually chatty epoch doesn't pin its peak forever.
const maxStagedArena = 1 << 20

// stagedTransport wraps the simulated transport for epoch execution. While
// an epoch's concurrent phase runs, Send copies messages into a per-item
// buffer (keyed by the sending node, which exactly one item owns); commit
// forwards them to the inner transport in item order. Outside an epoch it
// is a transparent passthrough. Buffer appends are race-free because each
// item runs on one goroutine and owns its buffer slot; the begin/commit
// transitions happen-before/after the worker pool via its WaitGroup.
type stagedTransport struct {
	inner transport.Transport

	// staging/owner/bufs are guarded by the worker pool's happens-before
	// edges (set in begin before the pool starts, read-only during the
	// phase, cleared in commit after the pool joins) — not by a mutex.
	staging bool
	owner   map[string]int
	bufs    []itemBuf
	strayMu sync.Mutex
	stray   []string
}

// Register implements transport.Transport.
func (s *stagedTransport) Register(node string, h transport.Handler) { s.inner.Register(node, h) }

// NodeStats implements transport.Transport.
func (s *stagedTransport) NodeStats(node string) transport.Stats { return s.inner.NodeStats(node) }

// Close implements transport.Transport.
func (s *stagedTransport) Close() error { return s.inner.Close() }

// Send implements transport.Transport: buffered during an epoch's
// concurrent phase, passed through otherwise. The payload is copied into
// the owning item's arena — Send does not retain the caller's buffer.
func (s *stagedTransport) Send(from, to string, payload []byte) error {
	if !s.staging {
		return s.inner.Send(from, to, payload)
	}
	idx, ok := s.owner[from]
	if !ok {
		// The sending node is not owned by any item: the item forgot to
		// list it, which would break both isolation and ordering. Surface
		// at the barrier and drop the message.
		s.strayMu.Lock()
		s.stray = append(s.stray, fmt.Sprintf("%s->%s", from, to))
		s.strayMu.Unlock()
		return fmt.Errorf("cluster: node %q sent during an epoch without being listed in any item", from)
	}
	b := &s.bufs[idx]
	start := len(b.arena)
	b.arena = append(b.arena, payload...)
	b.msgs = append(b.msgs, stagedMsg{from: from, to: to, start: start, end: len(b.arena)})
	return nil
}

func (s *stagedTransport) begin(owner map[string]int, items int) {
	s.owner = owner
	if cap(s.bufs) < items {
		grown := make([]itemBuf, items)
		copy(grown, s.bufs[:cap(s.bufs)])
		s.bufs = grown
	}
	s.bufs = s.bufs[:items]
	for i := range s.bufs {
		s.bufs[i].msgs = s.bufs[i].msgs[:0]
		s.bufs[i].arena = s.bufs[i].arena[:0]
	}
	s.stray = nil
	s.staging = true
}

// commit replays the buffered messages in item order and leaves staging
// mode (TestClusterBarrierReplaysItemOrder pins the order). The buffers themselves are kept for the next epoch — the simulated
// transport copies payloads when it schedules their delivery, so reusing
// the arenas cannot corrupt in-flight messages. Send errors from the inner
// transport and stray sends are combined into the returned error.
func (s *stagedTransport) commit() error {
	s.staging = false
	var firstErr error
	for i := range s.bufs {
		b := &s.bufs[i]
		for _, m := range b.msgs {
			if err := s.inner.Send(m.from, m.to, b.arena[m.start:m.end:m.end]); err != nil && firstErr == nil {
				firstErr = err
			}
		}
		if cap(b.arena) > maxStagedArena {
			b.arena = nil
		}
	}
	s.owner = nil
	if firstErr == nil && len(s.stray) > 0 {
		firstErr = fmt.Errorf("cluster: unowned sends during epoch: %v", s.stray)
	}
	return firstErr
}
