package main

import (
	"fmt"
	"path/filepath"
	"time"

	"repro/internal/store"
)

// perLayer lists every per-layer metric of BENCHMARK.json with its unit. A
// traced run prints all of them on every workload; a layer a workload never
// enters reports 0 (the prediction the README's table states). "exact"
// metrics are counts over a fixed prefix of the measured phase: they repeat
// bit for bit for a seed and are the run's fingerprint.
var perLayer = []struct{ name, unit string }{
	{"colog.parse_ms", "ms"},
	{"analysis.analyze_ms", "ms"},
	{"core.newnode_ms", "ms"},

	{"serve.offer_us_per_event", "us"},
	{"serve.coalesced_ratio", "ratio"},   // exact
	{"serve.admitted_per_tick", "count"}, // exact
	{"serve.tick_self_ms", "ms"},
	{"serve.wire_us_per_event", "us"},
	{"serve.wire_bytes_per_event", "B"}, // exact

	{"core.apply_ms_per_tick", "ms"},
	{"core.ground_ms_per_tick", "ms"},
	{"core.ground_incremental_ratio", "ratio"}, // exact
	{"core.consts_patched_per_tick", "count"},  // exact
	{"core.publish_ms_per_tick", "ms"},
	{"core.decision_deltas_per_tick", "count"}, // exact
	{"core.deltas_per_op", "count"},            // exact
	{"core.tuples_sent_per_op", "count"},       // exact
	{"core.replay_ms", "ms"},
	{"core.replay_records_per_s", "1/s"},
	{"core.checkpoint_ms", "ms"},
	{"core.checkpoint_kb", "KB"},

	{"solver.search_ms_per_tick", "ms"},
	{"solver.nodes_per_tick", "count"},    // exact
	{"solver.failures_per_tick", "count"}, // exact
	{"solver.vars", "count"},              // exact
	{"solver.cons", "count"},              // exact
	{"solver.nodes_per_ms", "1/ms"},
	{"solver.budget_hit_ratio", "ratio"}, // exact
	{"solver.search_ms_per_link", "ms"},

	{"store.log_records_per_op", "count"}, // exact
	{"store.log_bytes_per_op", "B"},       // exact
	{"store.write_amp", "ratio"},          // exact
	{"store.append_us_per_record", "us"},
	{"store.tick_share", "ratio"},
	{"store.read_records_ms", "ms"},

	{"transport.msgs_per_op", "count"},          // exact
	{"transport.bytes_per_op", "B"},             // exact
	{"transport.per_node_kbps_virtual", "KB/s"}, // exact
	{"transport.sim_send_us_per_msg", "us"},

	{"cluster.spawn_seed_ms_per_run", "ms"},
	{"cluster.settle_ms_per_run", "ms"},
	{"cluster.exec_ms_per_epoch", "ms"},
	{"cluster.barrier_ms_per_epoch", "ms"},
	{"cluster.flush_ms_per_epoch", "ms"},
	{"cluster.ground_ms_per_epoch", "ms"},
	{"cluster.solve_ms_per_epoch", "ms"},
	{"cluster.parallelism", "ratio"},
	{"cluster.agg_msgs_per_epoch", "count"}, // exact
	{"cluster.agg_bytes_per_epoch", "B"},    // exact
	{"cluster.rounds_to_converge", "count"}, // exact
	{"cluster.virtual_converge_s", "s"},     // exact
	{"cluster.workers2_over_workers1", "ratio"},

	{"go.alloc_mb_per_kop", "MB"},
	{"go.gc_cpu_fraction", "ratio"},
	{"go.gc_pause_total_ms", "ms"},
	{"go.heap_live_mb_end", "MB"},

	{"host.calib_ms", "ms"},
	{"host.calib_drift_pct", "%"},
	{"trace.overhead_pct", "%"},
	{"trace.self_sum_ratio", "ratio"},
}

// fillPerLayer reorders m into perLayer's order and reports 0 for every
// layer metric the workload did not produce. A metric outside the table is
// a programming error.
func fillPerLayer(m *metricSet) {
	out := make([]metric, 0, len(perLayer))
	known := map[string]bool{}
	for _, pl := range perLayer {
		known[pl.name] = true
		out = append(out, metric{pl.name, m.value(pl.name), pl.unit})
	}
	for _, x := range m.list {
		if !known[x.Name] {
			panic("bench: metric " + x.Name + " is not in the perLayer table")
		}
	}
	m.list = out
}

// medianOf times fn n times and returns the median.
func medianOf(n int, fn func() (time.Duration, error)) (time.Duration, error) {
	times := make([]time.Duration, n)
	for i := range times {
		d, err := fn()
		if err != nil {
			return 0, err
		}
		times[i] = d
	}
	return medianDuration(times), nil
}

// setupLayers times the set-up path's layers on their own: parsing and
// analysing the ACloud program, and building one seeded node.
func setupLayers(m *metricSet, hosts int, maxNodes int64) error {
	var prog *acloudProgram
	var parse, analyze []time.Duration
	for i := 0; i < 9; i++ {
		p, err := loadACloud(maxNodes)
		if err != nil {
			return err
		}
		prog = p
		parse, analyze = append(parse, p.parse), append(analyze, p.analyze)
	}
	newNode, err := medianOf(9, func() (time.Duration, error) {
		start := time.Now()
		_, err := prog.newNode(hosts, nil)
		return time.Since(start), err
	})
	if err != nil {
		return err
	}
	m.add("colog.parse_ms", ms(medianDuration(parse)), "ms")
	m.add("analysis.analyze_ms", ms(medianDuration(analyze)), "ms")
	m.add("core.newnode_ms", ms(newNode), "ms")
	return nil
}

func (w *acloudWorkload) failedOps() int { return w.failed }

func (w *acloudWorkload) layers(m *metricSet, run, base *phase) error {
	if err := setupLayers(m, w.shape.hosts, w.shape.maxNodes); err != nil {
		return err
	}
	all, ex, tw := &w.all, &w.exact, w.tw
	ticks, exTicks := float64(all.ticks), float64(ex.ticks)
	stats := w.srv.StatsSnapshot()

	m.add("serve.offer_us_per_event", us(w.offerWall)/float64(all.offered), "us")
	m.add("serve.coalesced_ratio", 1-ratio(float64(ex.admitted), float64(ex.offered)), "ratio")
	m.add("serve.admitted_per_tick", float64(ex.admitted)/exTicks, "count")
	m.add("serve.wire_us_per_event", us(w.wireWall)/float64(all.offered), "us")
	m.add("serve.wire_bytes_per_event", float64(ex.wireBytes)/float64(ex.offered), "B")
	if stats.EventsRejected > 0 {
		return fmt.Errorf("%s: %d events rejected by the admission queue", w.name, stats.EventsRejected)
	}

	twTicks := float64(tw.ticks)
	m.add("serve.tick_self_ms", ms(all.lat-tw.apply-tw.tick)/ticks, "ms")
	m.add("core.apply_ms_per_tick", ms(tw.apply)/twTicks, "ms")
	m.add("core.ground_ms_per_tick", ms(all.groundWall)/ticks, "ms")
	m.add("core.publish_ms_per_tick", ms(tw.tick-tw.ground-tw.search)/twTicks, "ms")
	m.add("core.ground_incremental_ratio", float64(ex.incremental)/exTicks, "ratio")
	m.add("core.consts_patched_per_tick", float64(ex.constsPatched)/exTicks, "count")
	m.add("core.decision_deltas_per_tick", float64(ex.deltas)/exTicks, "count")
	eng, start := w.engineExact, w.engineBase
	m.add("core.deltas_per_op", float64(eng.deltas-start.deltas)/float64(ex.offered), "count")
	m.add("core.tuples_sent_per_op", float64(eng.tuplesSent-start.tuplesSent)/float64(ex.offered), "count")

	m.add("solver.search_ms_per_tick", ms(all.searchWall)/ticks, "ms")
	m.add("solver.nodes_per_tick", float64(ex.nodes)/exTicks, "count")
	m.add("solver.failures_per_tick", float64(ex.failures)/exTicks, "count")
	m.add("solver.vars", float64(ex.vars), "count")
	m.add("solver.cons", float64(ex.cons), "count")
	m.add("solver.nodes_per_ms", ratio(float64(all.nodes), ms(all.searchWall)), "1/ms")
	m.add("solver.budget_hit_ratio", float64(ex.budgetHit)/exTicks, "ratio")

	if !w.shape.durable {
		return nil
	}
	m.add("store.log_records_per_op", float64(eng.logRecords-start.logRecords)/float64(ex.offered), "count")
	m.add("store.log_bytes_per_op", float64(eng.logBytes-start.logBytes)/float64(ex.offered), "B")
	m.add("store.write_amp", ratio(float64(eng.logBytes-start.logBytes), float64(ex.admittedWire)), "ratio")
	m.add("store.tick_share", 1-ratio(float64(tw.memTotal), float64(tw.apply+tw.tick)), "ratio")
	return w.storeLayers(m)
}

// storeLayers measures the store on its own with what the run left behind:
// reading the final log, re-appending its records through a fresh fsync'd
// WAL, and exporting one checkpoint of the final state.
func (w *acloudWorkload) storeLayers(m *metricSet) error {
	log := w.store.Log()
	var recs [][]byte
	read, err := medianOf(5, func() (time.Duration, error) {
		start := time.Now()
		r, err := log.ReadRecords()
		recs = r
		return time.Since(start), err
	})
	if err != nil {
		return err
	}
	m.add("store.read_records_ms", ms(read), "ms")

	const reappend = 2000
	if len(recs) > reappend {
		recs = recs[len(recs)-reappend:]
	}
	wal, err := store.OpenWAL(filepath.Join(w.dir, "reappend.log"), true)
	if err != nil {
		return err
	}
	start := time.Now()
	for _, rec := range recs {
		if err := wal.Append(rec); err != nil {
			wal.Close()
			return err
		}
	}
	appendWall := time.Since(start)
	if err := wal.Close(); err != nil {
		return err
	}
	m.add("store.append_us_per_record", us(appendWall)/float64(len(recs)), "us")

	var size int
	export, err := medianOf(5, func() (time.Duration, error) {
		start := time.Now()
		data, err := w.srv.Node().ExportCheckpoint()
		size = len(data)
		return time.Since(start), err
	})
	if err != nil {
		return err
	}
	m.add("core.checkpoint_ms", ms(export), "ms")
	m.add("core.checkpoint_kb", float64(size)/1024, "KB")
	return nil
}

func (w *restartWorkload) failedOps() int { return w.failed }

func (w *restartWorkload) layers(m *metricSet, run, base *phase) error {
	if err := setupLayers(m, durableShape.hosts, durableShape.maxNodes); err != nil {
		return err
	}
	n := float64(w.restarts)
	m.add("core.replay_ms", ms(w.replayWall)/n, "ms")
	m.add("core.replay_records_per_s", ratio(float64(w.records)*n, w.replayWall.Seconds()), "1/s")
	m.add("store.read_records_ms", ms(w.readWall)/n, "ms")
	m.add("store.log_records_per_op", float64(w.records), "count")
	m.add("store.log_bytes_per_op", float64(w.logBytes), "B")
	return nil
}

func (w *ringWorkload) failedOps() int { return w.failed }

func (w *ringWorkload) layers(m *metricSet, run, base *phase) error {
	// Every negotiation parses and analyses the program and spawns 40
	// nodes, so the set-up layers are on this workload's operation path.
	if err := setupLayers(m, 1, 4000); err != nil {
		return err
	}
	all, ex, ep, exEp := &w.all, &w.exact, &w.epochs, &w.exactEpochs
	exOps := float64(ex.solves)
	m.add("core.deltas_per_op", float64(exEp.deltas)/exOps, "count")
	m.add("core.tuples_sent_per_op", float64(exEp.tuplesSent)/exOps, "count")
	m.add("solver.search_ms_per_link", ms(all.solveWall)/float64(all.solves), "ms")
	m.add("solver.nodes_per_tick", float64(ex.solverNodes)/exOps, "count")
	m.add("solver.nodes_per_ms", ratio(float64(all.solverNodes), ms(all.solveWall)), "1/ms")

	m.add("transport.msgs_per_op", float64(ex.msgs)/exOps, "count")
	m.add("transport.bytes_per_op", float64(ex.bytes)/exOps, "B")
	m.add("transport.per_node_kbps_virtual", ex.kbps/float64(ex.runs), "KB/s")
	send, err := simSendCost(int(all.bytes/all.msgs), 20000)
	if err != nil {
		return err
	}
	m.add("transport.sim_send_us_per_msg", us(send), "us")

	runs, epochs := float64(ep.runs), float64(ep.epochs)
	m.add("cluster.spawn_seed_ms_per_run", ms(ep.spawnSeed)/runs, "ms")
	m.add("cluster.settle_ms_per_run", ms(ep.settle)/runs, "ms")
	m.add("cluster.exec_ms_per_epoch", ms(ep.exec)/epochs, "ms")
	m.add("cluster.barrier_ms_per_epoch", ms(ep.barrier)/epochs, "ms")
	m.add("cluster.flush_ms_per_epoch", ms(ep.flush)/epochs, "ms")
	m.add("cluster.ground_ms_per_epoch", ms(ep.ground)/epochs, "ms")
	m.add("cluster.solve_ms_per_epoch", ms(ep.solve)/epochs, "ms")
	m.add("cluster.parallelism", ratio(float64(ep.ground+ep.solve), float64(ep.exec)), "ratio")
	m.add("cluster.agg_msgs_per_epoch", float64(exEp.aggMsgs)/float64(exEp.epochs), "count")
	m.add("cluster.agg_bytes_per_epoch", float64(exEp.aggBytes)/float64(exEp.epochs), "B")
	m.add("cluster.rounds_to_converge", float64(ex.rounds)/float64(ex.runs), "count")
	m.add("cluster.virtual_converge_s", ex.virtual.Seconds()/float64(ex.runs), "s")
	m.add("cluster.workers2_over_workers1", ratio(base.busyRate(), w.w1Rate), "ratio")
	return nil
}
