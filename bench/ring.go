package main

import (
	"fmt"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/followsun"
	"repro/internal/sim"
	"repro/internal/transport"
)

const (
	ringDCs     = 40 // data centers, and therefore links, per negotiation
	ringWarmup  = 70 // negotiations before timing starts
	ringRecheck = 80 // negotiations repeated at Workers=1 when the run ends
)

// ringDigest is what one negotiation must reproduce exactly at any worker
// count, and what bench/golden.json pins per seed.
type ringDigest struct {
	FinalCost   float64 `json:"final_cost"`
	SolverNodes int64   `json:"solver_nodes"`
	Solves      int     `json:"solves"`
	Rounds      int     `json:"rounds"`
	Msgs        int64   `json:"msgs"`
	Bytes       int64   `json:"bytes"`
}

func digestOf(res *followsun.Result) ringDigest {
	d := ringDigest{
		FinalCost: res.FinalCost, SolverNodes: res.SolverNodes,
		Solves: res.PerLinkSolves, Rounds: res.Rounds,
	}
	for _, st := range res.WireStats {
		d.Msgs += st.MsgsSent
		d.Bytes += st.BytesSent
	}
	return d
}

// ringCounts sums what the runs of one phase did.
type ringCounts struct {
	runs, solves, rounds int
	msgs, bytes          int64
	solverNodes          int64
	virtual              time.Duration
	kbps                 float64
	solveWall            time.Duration // Σ MeanSolveTime × solves
}

func (c *ringCounts) count(res *followsun.Result, d ringDigest) {
	c.runs++
	c.solves += d.Solves
	c.rounds += d.Rounds
	c.msgs += d.Msgs
	c.bytes += d.Bytes
	c.solverNodes += d.SolverNodes
	c.virtual += res.ConvergenceTime
	c.kbps += res.PerNodeKBps
	c.solveWall += res.MeanSolveTime * time.Duration(d.Solves)
}

// epochTotals folds the EpochStats a traced run collects through
// Options.AfterEpoch.
type epochTotals struct {
	epochs                              int
	exec, barrier, flush, ground, solve time.Duration
	aggMsgs, aggBytes                   int64
	deltas, tuplesSent                  int64
	spawnSeed, settle                   time.Duration
	runs                                int
}

// ringWorkload runs the distributed Follow-the-Sun negotiation on the
// cluster runtime over the simulated transport: every operation step is one
// whole negotiation of a freshly generated 40-center ring to convergence.
type ringWorkload struct {
	scale   float64
	seed    int64
	next    int // index of the next negotiation
	failed  int
	digests []ringDigest // of the first ringRecheck measured negotiations

	// all counts every measured negotiation, exact only the first
	// ringRecheck, so it repeats bit for bit however long the run.
	all, exact          ringCounts
	epochs, exactEpochs epochTotals // traced run only
	w1Rate              float64     // operations per second of the Workers=1 recheck
}

func (w *ringWorkload) options(workers int) cluster.Options {
	return cluster.Options{
		Workers:     workers,
		Shards:      followsun.RingShardPlan(ringDCs, 2),
		Aggregation: cluster.AggregationRollup,
	}
}

func (w *ringWorkload) params(i int) followsun.Params {
	p := followsun.RingParams(ringDCs)
	// Distinct seeds never share a negotiation: run i of seed s is ring
	// number s*1e6+i.
	p.Seed = w.seed*1_000_000 + int64(i)
	return p
}

func (w *ringWorkload) setup(seed int64, dir string, traced bool) error {
	w.seed = seed
	for i := 0; i < max(1, int(ringWarmup*w.scale)); i++ {
		if _, err := followsun.RunCluster(w.params(-1-i), w.options(2)); err != nil {
			return err
		}
	}
	return nil
}

// op runs negotiation number w.next to convergence. Its operations are the
// per-link negotiations it made; the decision latency is the whole run.
func (w *ringWorkload) op(t *tracer, opID int) (sample, error) {
	i := w.next
	w.next++
	o := w.options(2)
	var rec *epochRecorder
	if t != nil {
		rec = &epochRecorder{}
		o.AfterEpoch = rec.afterEpoch
	}
	begin := time.Now()
	res, err := followsun.RunCluster(w.params(i), o)
	end := time.Now()
	if err != nil {
		// A negotiation that does not converge fails every link it holds.
		w.failed += ringDCs
		return sample{ops: ringDCs, latency: end.Sub(begin), busy: end.Sub(begin), finished: end}, nil
	}
	d := digestOf(res)
	if len(w.digests) < ringRecheck {
		w.digests = append(w.digests, d)
	}
	w.all.count(res, d)
	if rec != nil {
		rec.emit(t, opID, begin, end, &w.epochs)
	}
	if w.all.runs <= ringRecheck {
		w.exact, w.exactEpochs = w.all, w.epochs
	}
	return sample{ops: d.Solves, latency: end.Sub(begin), busy: end.Sub(begin), finished: end}, nil
}

// epochRecorder collects one negotiation's EpochStats and per-node engine
// counters through the runtime's AfterEpoch hook.
type epochRecorder struct {
	epochs []recordedEpoch
	final  []cluster.EpochStats
	nodes  core.NodeStats
}

type recordedEpoch struct {
	end  time.Time // when the runtime called the hook
	stat cluster.EpochStats
}

func (r *epochRecorder) afterEpoch(rt *cluster.Runtime, epoch int) error {
	now := time.Now()
	hist := rt.History()
	st := hist[len(hist)-1]
	r.epochs = append(r.epochs, recordedEpoch{end: now, stat: st})
	r.final = hist
	r.nodes = core.NodeStats{}
	for _, addr := range rt.Addrs() {
		ns := rt.Node(addr).Stats()
		r.nodes.DeltasProcessed += ns.DeltasProcessed
		r.nodes.TuplesSent += ns.TuplesSent
	}
	return nil
}

// emit turns the recorded epochs into the operation's span tree:
// op → cluster.spawn_seed, cluster.epoch → cluster.exec (→ cluster.ground,
// cluster.solve, cluster.flush), cluster.barrier, and cluster.settle for the
// message delivery and bookkeeping between epochs and after the last.
func (r *epochRecorder) emit(t *tracer, opID int, begin, end time.Time, tot *epochTotals) {
	root := t.add(opID, 0, "op", begin, end)
	cursor := begin
	for k, e := range r.epochs {
		wall := e.stat.ExecWall + e.stat.BarrierWall
		start := e.end.Add(-wall)
		if start.Before(cursor) {
			start = cursor
		}
		name := "cluster.settle"
		if k == 0 {
			name = "cluster.spawn_seed"
			tot.spawnSeed += start.Sub(cursor)
		} else {
			tot.settle += start.Sub(cursor)
		}
		t.add(opID, root, name, cursor, start)
		ep := t.add(opID, root, fmt.Sprintf("cluster.epoch[%d]", k), start, e.end)
		execID, at := t.attribute(opID, ep, "cluster.exec", start, e.stat.ExecWall)
		t.attribute(opID, ep, "cluster.barrier", at, e.stat.BarrierWall)
		// Ground, solve and flush are summed over the epoch's items. On two
		// workers they overlap and together exceed cluster.exec, so their
		// spans are shrunk by the overlap to the share of the epoch's wall
		// each accounts for; the per-layer metrics keep the sums.
		overlap := 1.0
		if items := e.stat.GroundWall + e.stat.SolveWall + e.stat.FlushWall; items > e.stat.ExecWall {
			overlap = float64(e.stat.ExecWall) / float64(items)
		}
		share := func(d time.Duration) time.Duration { return time.Duration(float64(d) * overlap) }
		_, at = t.attribute(opID, execID, "cluster.ground", start, share(e.stat.GroundWall))
		_, at = t.attribute(opID, execID, "cluster.solve", at, share(e.stat.SolveWall))
		t.attribute(opID, execID, "cluster.flush", at, share(e.stat.FlushWall))
		cursor = e.end
		tot.exec += e.stat.ExecWall
		tot.barrier += e.stat.BarrierWall
		tot.flush += e.stat.FlushWall
		tot.ground += e.stat.GroundWall
		tot.solve += e.stat.SolveWall
	}
	t.add(opID, root, "cluster.settle", cursor, end)
	tot.settle += end.Sub(cursor)
	tot.epochs += len(r.epochs)
	tot.runs++
	for _, st := range r.final {
		tot.aggMsgs += st.AggMsgs
		tot.aggBytes += st.AggBytes
	}
	tot.deltas += r.nodes.DeltasProcessed
	tot.tuplesSent += r.nodes.TuplesSent
}

// verify repeats the first measured negotiations on one worker: cost,
// search nodes, message and byte totals must not depend on the worker
// count, and must equal the digests pinned for this seed, if any.
func (w *ringWorkload) verify() error {
	if w.failed > 0 {
		return fmt.Errorf("followsun-ring: %d failed operations", w.failed)
	}
	start := time.Now()
	ops := 0
	for i, want := range w.digests {
		res, err := followsun.RunCluster(w.params(i), w.options(1))
		if err != nil {
			return fmt.Errorf("followsun-ring: run %d at Workers=1: %w", i, err)
		}
		got := digestOf(res)
		if got != want {
			return fmt.Errorf("followsun-ring: run %d differs between Workers=2 %+v and Workers=1 %+v", i, want, got)
		}
		ops += got.Solves
	}
	w.w1Rate = ratio(float64(ops), time.Since(start).Seconds())
	return checkGolden(w.seed, w.digests)
}

func (w *ringWorkload) close() error { return nil }

// simSendCost drives a two-node simulated transport with frames of the given
// size and returns the mean wall time of one send plus its delivery.
func simSendCost(frameBytes, n int) (time.Duration, error) {
	sched := sim.NewScheduler()
	tr := transport.NewSim(sched, 2*time.Millisecond)
	received := 0
	tr.Register("a", func(transport.Message) {})
	tr.Register("b", func(transport.Message) { received++ })
	payload := make([]byte, frameBytes)
	start := time.Now()
	for i := 0; i < n; i++ {
		if err := tr.Send("a", "b", payload); err != nil {
			return 0, err
		}
		if i%64 == 63 {
			sched.RunUntilIdle(1 << 20)
		}
	}
	sched.RunUntilIdle(1 << 20)
	d := time.Since(start)
	if received != n {
		return 0, fmt.Errorf("simulated transport delivered %d of %d frames", received, n)
	}
	return d / time.Duration(n), nil
}
