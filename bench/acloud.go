package main

import (
	"errors"
	"fmt"
	"path/filepath"
	"time"

	"repro/internal/analysis"
	"repro/internal/colog"
	"repro/internal/core"
	"repro/internal/programs"
	"repro/internal/serve"
	"repro/internal/solver"
	"repro/internal/store"
)

// burstSize is the number of churn events offered before each tick.
const burstSize = 32

// acloudShape sizes one ACloud serving workload.
type acloudShape struct {
	hosts, vms  int
	maxNodes    int64
	durable     bool // disk store with fsync under the run's directory
	warmupTicks int
	// shadowTicks is how many measured ticks, after the warm-up, the batch
	// reference re-solves when the run ends. Re-solving every tick would
	// double the run; the prefix bounds the check to a few seconds.
	shadowTicks int
}

// scaled shrinks the warm-up and the reference check, never below one tick.
func (s acloudShape) scaled(scale float64) acloudShape {
	s.warmupTicks = max(1, int(float64(s.warmupTicks)*scale))
	s.shadowTicks = max(1, int(float64(s.shadowTicks)*scale))
	return s
}

var (
	churnShape   = acloudShape{hosts: 4, vms: 40, maxNodes: 4000, warmupTicks: 200, shadowTicks: 60}
	durableShape = acloudShape{hosts: 2, vms: 12, maxNodes: 300, durable: true, warmupTicks: 400, shadowTicks: 600}
)

// acloudProgram is the parsed and analysed ACloud program with the node
// configuration the serving runtime uses (acloud.NewServing's): incremental
// re-grounding and warm starts on, vmRaw keyed so a CPU reading is a keyed
// replace.
type acloudProgram struct {
	res     *analysis.Result
	cfg     core.Config
	parse   time.Duration
	analyze time.Duration
}

func loadACloud(maxNodes int64) (*acloudProgram, error) {
	entry := programs.ACloud(false, 0)
	start := time.Now()
	prog, err := colog.Parse(entry.Source)
	if err != nil {
		return nil, fmt.Errorf("parse acloud: %w", err)
	}
	parsed := time.Now()
	res, err := analysis.Analyze(prog, entry.Config.Params)
	if err != nil {
		return nil, fmt.Errorf("analyze acloud: %w", err)
	}
	cfg := entry.Config
	cfg.SolverMaxNodes = maxNodes
	cfg.SolverPropagate = true
	cfg.SolverIncremental = true
	cfg.SolverWarmStart = true
	cfg.Keys = map[string][]int{"vmRaw": {0}, "origin": {0}, "vm": {0}}
	return &acloudProgram{res: res, cfg: cfg, parse: parsed.Sub(start), analyze: time.Since(parsed)}, nil
}

// newNode builds one data-center node over st (nil = private memory store)
// and seeds its hosts.
func (p *acloudProgram) newNode(hosts int, st store.Store) (*core.Node, error) {
	cfg := p.cfg
	cfg.Storage = st
	n, err := core.NewNode("dc0", p.res, cfg, nil)
	if err != nil {
		return nil, err
	}
	for h := 0; h < hosts; h++ {
		hid := colog.StringVal(fmt.Sprintf("h%d", h))
		if err := n.Insert("host", hid, colog.IntVal(0), colog.IntVal(0)); err != nil {
			return nil, err
		}
		if err := n.Insert("hostMemThres", hid, colog.IntVal(32*1024)); err != nil {
			return nil, err
		}
	}
	return n, nil
}

func applyBatch(n *core.Node, batch []serve.Event) error {
	for _, ev := range batch {
		var err error
		if ev.Op == serve.OpInsert {
			err = n.Insert(ev.Pred, ev.Vals...)
		} else {
			err = n.Delete(ev.Pred, ev.Vals...)
		}
		if err != nil {
			return fmt.Errorf("applying %s: %w", ev, err)
		}
	}
	return nil
}

// solveFingerprint is what the serving node and a reference must agree on
// beside their table dumps.
type solveFingerprint struct {
	dump             string
	objective        float64
	nodes, failures  int64
	numVars, numCons int
}

func fingerprint(n *core.Node) solveFingerprint {
	fp := solveFingerprint{dump: n.Dump()}
	if r := n.LastSolveResult; r != nil {
		fp.objective, fp.nodes, fp.failures = r.Objective, r.Stats.Nodes, r.Stats.Failures
		fp.numVars, fp.numCons = r.NumVars, r.NumCons
	}
	return fp
}

// tickCounts sums what a stretch of measured ticks did.
type tickCounts struct {
	ticks, offered, admitted    int
	wireBytes                   int
	deltas, constsPatched       int
	incremental, budgetHit      int
	nodes, failures             int64
	vars, cons                  int
	admittedWire                int // wire bytes of the admitted batches (traced run only)
	searchWall, groundWall, lat time.Duration
}

// engineCounts snapshots the serving node's cumulative engine and log
// counters.
type engineCounts struct {
	deltas, tuplesSent   int64
	logRecords, logBytes int64
}

func readEngineCounts(n *core.Node) engineCounts {
	st := n.Stats()
	c := engineCounts{deltas: st.DeltasProcessed, tuplesSent: st.TuplesSent}
	c.logRecords, c.logBytes = n.LogStats()
	return c
}

// acloudWorkload serves one ACloud data center continuously: bursts of
// churn go through the wire codec into the admission queue, then one tick.
type acloudWorkload struct {
	name  string
	shape acloudShape
	dir   string

	prog   *acloudProgram
	gen    *churnGen
	store  store.Store
	srv    *serve.Server
	burst  int
	failed int

	// batches holds the admitted batch of every tick up to the end of the
	// shadow prefix; prefixFP is the serving node's state at that point.
	batches  [][]serve.Event
	prefixFP solveFingerprint

	// all counts every measured tick; exact counts only the first
	// exactTicks of them, so it repeats bit for bit however long the run.
	measuring  bool
	all, exact tickCounts
	// engineBase is the node's counters when measurement began, engineExact
	// when the exact prefix ended.
	engineBase, engineExact engineCounts
	wireWall, offerWall     time.Duration

	tw *acloudTwins // traced run only
}

// exactTicks is the length of the measured prefix the exact counters cover.
const exactTicks = 200

// prefixTicks is how many ticks, counting the starting population's and the
// warm-up's, the batch reference replays.
func (w *acloudWorkload) prefixTicks() int {
	return 1 + w.shape.warmupTicks + w.shape.shadowTicks
}

func (w *acloudWorkload) openStore(sub string) (store.Store, error) {
	if !w.shape.durable {
		return nil, nil
	}
	return store.Open("disk", filepath.Join(w.dir, sub), true)
}

func (w *acloudWorkload) setup(seed int64, dir string, traced bool) error {
	w.dir = dir
	prog, err := loadACloud(w.shape.maxNodes)
	if err != nil {
		return err
	}
	w.prog = prog
	if w.store, err = w.openStore("serving"); err != nil {
		return err
	}
	node, err := prog.newNode(w.shape.hosts, w.store)
	if err != nil {
		return err
	}
	w.srv = serve.NewServer(node, serve.Config{Keys: map[string][]int{"vmRaw": {0}}})
	w.gen = newChurnGen(seed, w.shape.vms)
	if traced {
		if w.tw, err = newACloudTwins(w); err != nil {
			return err
		}
	}

	// The starting population arrives through the stream, like all churn.
	if _, err := w.step(w.gen.initial(), nil, 0); err != nil {
		return err
	}
	for i := 0; i < w.shape.warmupTicks; i++ {
		if _, err := w.op(nil, 0); err != nil {
			return err
		}
	}
	if w.failed > 0 {
		return fmt.Errorf("%s: %d failed operations during warm-up", w.name, w.failed)
	}
	w.measuring = true
	w.engineBase = readEngineCounts(node)
	return nil
}

// op generates the next burst and serves it.
func (w *acloudWorkload) op(t *tracer, opID int) (sample, error) {
	w.burst++
	return w.step(w.gen.burst(w.burst, burstSize), t, opID)
}

// step ships one burst through the wire codec, offers it, and ticks. The
// decision latency runs from the first Offer to TickOnce returning the
// decision delta.
func (w *acloudWorkload) step(events []serve.Event, t *tracer, opID int) (sample, error) {
	begin := time.Now()
	frame, err := serve.EncodeTrace(events)
	if err != nil {
		return sample{}, err
	}
	decoded, err := serve.DecodeTrace(frame)
	if err != nil {
		return sample{}, err
	}
	offerStart := time.Now()
	for _, ev := range decoded {
		if err := w.srv.Offer(ev); err != nil {
			if !errors.Is(err, serve.ErrQueueFull) {
				return sample{}, err
			}
			w.failed++
		}
	}
	tickStart := time.Now()
	rep, err := w.srv.TickOnce()
	if err != nil {
		return sample{}, err
	}
	end := time.Now()
	if rep.Degraded || !rep.Solved || rep.QueueDepth != 0 {
		w.failed++
	}
	s := sample{ops: len(events), latency: end.Sub(offerStart), busy: end.Sub(begin), finished: end}

	if len(w.batches) < w.prefixTicks() {
		w.batches = append(w.batches, rep.Batch)
		if len(w.batches) == w.prefixTicks() {
			w.prefixFP = fingerprint(w.srv.Node())
		}
	}
	if w.measuring {
		w.wireWall += offerStart.Sub(begin)
		w.offerWall += tickStart.Sub(offerStart)
		w.all.count(len(events), len(frame), rep)
		if w.tw != nil {
			w.all.admittedWire += admittedWireBytes(rep.Batch)
		}
		if w.all.ticks <= exactTicks {
			w.exact, w.engineExact = w.all, readEngineCounts(w.srv.Node())
		}
	}
	if w.tw != nil {
		tick := 0
		if t != nil {
			root := t.add(opID, 0, "op", begin, end)
			t.add(opID, root, "serve.wire", begin, offerStart)
			t.add(opID, root, "serve.offer", offerStart, tickStart)
			tick = t.add(opID, root, "serve.tick", tickStart, end)
		}
		if err := w.tw.mirror(t, opID, tick, tickStart, rep); err != nil {
			return sample{}, err
		}
		s.finished = time.Now()
	}
	return s, nil
}

// admittedWireBytes is the wire size of a tick's admitted batch, the user
// data the log's bytes are compared with.
func admittedWireBytes(batch []serve.Event) int {
	frame, err := serve.EncodeTrace(batch)
	if err != nil {
		return 0
	}
	return len(frame)
}

func (c *tickCounts) count(offered, wireBytes int, rep *serve.TickReport) {
	c.ticks++
	c.offered += offered
	c.admitted += len(rep.Batch)
	c.wireBytes += wireBytes
	c.deltas += len(rep.Deltas)
	c.lat += rep.Latency
	r := rep.Result
	if r == nil {
		return
	}
	c.nodes += r.Stats.Nodes
	c.failures += r.Stats.Failures
	c.vars, c.cons = r.NumVars, r.NumCons
	c.searchWall += r.Stats.Elapsed
	c.groundWall += r.GroundWall
	if r.Ground != nil && r.Ground.Mode == "incremental" {
		c.incremental++
		c.constsPatched += r.Ground.ConstsPatched
	}
	if r.Status == solver.StatusFeasible {
		c.budgetHit++ // stopped by the node budget before proving optimality
	}
}

// verify checks the run's outputs: no failed operation, the serving node
// byte-identical to a batch reference that re-solved the prefix, and (when
// durable) a node replayed from the log byte-identical to the live one.
func (w *acloudWorkload) verify() error {
	if w.failed > 0 {
		return fmt.Errorf("%s: %d failed operations", w.name, w.failed)
	}
	if w.tw != nil {
		if err := w.tw.verify(); err != nil {
			return err
		}
	}
	if err := w.checkPlacement(); err != nil {
		return err
	}
	shadow, err := w.prog.newNode(w.shape.hosts, nil)
	if err != nil {
		return err
	}
	for i, batch := range w.batches {
		if err := applyBatch(shadow, batch); err != nil {
			return fmt.Errorf("%s: shadow tick %d: %w", w.name, i, err)
		}
		if _, err := shadow.Solve(core.SolveOptions{}); err != nil {
			return fmt.Errorf("%s: shadow solve %d: %w", w.name, i, err)
		}
	}
	if len(w.batches) == w.prefixTicks() {
		if got := fingerprint(shadow); got != w.prefixFP {
			return fmt.Errorf("%s: serving node diverged from the batch reference after %d ticks:\nserving: %+v\nreference: %+v",
				w.name, len(w.batches), w.prefixFP, got)
		}
	}
	if w.shape.durable {
		live := w.srv.Node().Dump()
		cfg := w.prog.cfg
		cfg.Storage = w.store
		replayed, err := core.ReplayNode("dc0", w.prog.res, cfg, nil)
		if err != nil {
			return fmt.Errorf("%s: final replay: %w", w.name, err)
		}
		if replayed.Dump() != live {
			return fmt.Errorf("%s: node replayed from the log differs from the live node", w.name)
		}
	}
	return nil
}

// checkPlacement checks the final decision against the generator's own
// state: the engine holds exactly the live VMs, and each is placed on exactly
// one host.
func (w *acloudWorkload) checkPlacement() error {
	node := w.srv.Node()
	if got := len(node.Rows("vmRaw")); got != len(w.gen.live) {
		return fmt.Errorf("%s: engine holds %d VMs, the generator has %d live", w.name, got, len(w.gen.live))
	}
	placed := map[string]int64{}
	for _, row := range node.Rows("assign") {
		placed[row[0].S] += row[2].I
	}
	for _, vm := range w.gen.live {
		if n := placed[fmt.Sprintf("vm%d", vm.id)]; n != 1 {
			return fmt.Errorf("%s: vm%d is placed on %d hosts", w.name, vm.id, n)
		}
	}
	if len(placed) != len(w.gen.live) {
		return fmt.Errorf("%s: %d VMs are placed, %d are live", w.name, len(placed), len(w.gen.live))
	}
	return nil
}

func (w *acloudWorkload) close() error {
	var err error
	if w.tw != nil {
		err = w.tw.close()
	}
	if w.store != nil {
		if cerr := w.store.Close(); err == nil {
			err = cerr
		}
	}
	return err
}
