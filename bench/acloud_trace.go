package main

import (
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/serve"
	"repro/internal/store"
)

// acloudTwins are the extra nodes a traced ACloud run drives beside the
// server. serve.Server.TickOnce is opaque from outside, so the split of a
// tick into core.apply (the Insert/Delete loop) and core.tick (re-ground,
// search, publish) comes from a twin node of the same configuration and
// storage kind, fed the batches TickReport.Batch records. On the durable
// workload a second, memory-backed twin replays the same batches: the
// difference between the two twins' tick times is what the store costs.
type acloudTwins struct {
	w        *acloudWorkload
	node     *core.Node
	store    store.Store
	mem      *core.Node // durable workload only
	apply    time.Duration
	tick     time.Duration
	ground   time.Duration
	search   time.Duration
	memTotal time.Duration
	ticks    int
}

func newACloudTwins(w *acloudWorkload) (*acloudTwins, error) {
	tw := &acloudTwins{w: w}
	var err error
	if tw.store, err = w.openStore("twin"); err != nil {
		return nil, err
	}
	if tw.node, err = w.prog.newNode(w.shape.hosts, tw.store); err != nil {
		return nil, err
	}
	if w.shape.durable {
		if tw.mem, err = w.prog.newNode(w.shape.hosts, nil); err != nil {
			return nil, err
		}
	}
	return tw, nil
}

// mirror replays one served tick on the twins. With a tracer it records
// core.apply and core.tick as children of the serve.tick span: their
// lengths are the twin's, their placement inside the server's tick nominal.
func (tw *acloudTwins) mirror(t *tracer, opID, tickSpan int, tickStart time.Time, rep *serve.TickReport) error {
	t0 := time.Now()
	if err := applyBatch(tw.node, rep.Batch); err != nil {
		return fmt.Errorf("twin: %w", err)
	}
	t1 := time.Now()
	tr, err := tw.node.Tick(core.TickOptions{})
	if err != nil {
		return fmt.Errorf("twin tick: %w", err)
	}
	t2 := time.Now()
	var ground, search time.Duration
	if tr.Result != nil {
		ground, search = tr.Result.GroundWall, tr.Result.Stats.Elapsed
	}
	var memApply, memTick time.Duration
	if tw.mem != nil {
		if err := applyBatch(tw.mem, rep.Batch); err != nil {
			return fmt.Errorf("memory twin: %w", err)
		}
		t3 := time.Now()
		if _, err := tw.mem.Tick(core.TickOptions{}); err != nil {
			return fmt.Errorf("memory twin tick: %w", err)
		}
		memApply, memTick = t3.Sub(t2), time.Since(t3)
	}
	if !tw.w.measuring {
		return nil
	}
	apply, tick := t1.Sub(t0), t2.Sub(t1)
	tw.ticks++
	tw.apply += apply
	tw.tick += tick
	tw.ground += ground
	tw.search += search
	tw.memTotal += memApply + memTick
	if t == nil {
		return nil
	}
	applyID, at := t.attribute(opID, tickSpan, "core.apply", tickStart, apply)
	tickID, tickEnd := t.attribute(opID, tickSpan, "core.tick", at, tick)
	_, at = t.attribute(opID, tickID, "core.ground", at, ground)
	_, at = t.attribute(opID, tickID, "solver.search", at, search)
	if tw.mem != nil {
		// What the disk twin took beyond the memory twin is the store's:
		// log appends and fsyncs.
		if d := apply - memApply; d > 0 {
			t.attribute(opID, applyID, "store.log", tickStart, d)
		}
		if d := tick - memTick; d > 0 && tickEnd.Sub(at) > d {
			_, at = t.attribute(opID, tickID, "store.log", at, d)
		}
	}
	if tickEnd.After(at) {
		t.attribute(opID, tickID, "core.publish", at, tickEnd.Sub(at))
	}
	return nil
}

// verify demands that every twin ended byte-identical to the serving node:
// same tables in the same arrival order, same last solve.
func (tw *acloudTwins) verify() error {
	want := fingerprint(tw.w.srv.Node())
	if got := fingerprint(tw.node); got != want {
		return fmt.Errorf("%s: twin node diverged from the serving node", tw.w.name)
	}
	if tw.mem != nil {
		if got := fingerprint(tw.mem); got != want {
			return fmt.Errorf("%s: memory-backed twin diverged from the durable serving node", tw.w.name)
		}
	}
	return nil
}

func (tw *acloudTwins) close() error {
	if tw.store != nil {
		return tw.store.Close()
	}
	return nil
}
