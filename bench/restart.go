package main

import (
	"fmt"
	"path/filepath"
	"time"

	"repro/internal/core"
	"repro/internal/serve"
	"repro/internal/store"
)

const (
	restartLogRecords = 4000 // the log set-up builds holds at least this many records
	restartWarmup     = 35   // untimed restarts before timing starts
	restartCheckEvery = 25   // every n-th restart's dump is compared with the reference
)

// restartWorkload restarts one node from its write-ahead log over and over.
// Set-up builds the log by serving the acloud-durable trace with fsync off;
// every operation is one core.ReplayNode on that store. It reads the store
// and the log codec where acloud-durable writes them.
type restartWorkload struct {
	scale     float64
	prog      *acloudProgram
	store     store.Store
	cfg       core.Config
	reference string // Node.Dump() of the node that wrote the log
	records   int64
	logBytes  int64

	restarts   int
	failed     int
	readWall   time.Duration
	replayWall time.Duration
}

func (w *restartWorkload) setup(seed int64, dir string, traced bool) error {
	prog, err := loadACloud(durableShape.maxNodes)
	if err != nil {
		return err
	}
	w.prog = prog
	if w.store, err = store.Open("disk", filepath.Join(dir, "restart"), false); err != nil {
		return err
	}
	node, err := prog.newNode(durableShape.hosts, w.store)
	if err != nil {
		return err
	}
	srv := serve.NewServer(node, serve.Config{Keys: map[string][]int{"vmRaw": {0}}})
	gen := newChurnGen(seed, durableShape.vms)
	serveBurst := func(events []serve.Event) error {
		for _, ev := range events {
			if err := srv.Offer(ev); err != nil {
				return err
			}
		}
		rep, err := srv.TickOnce()
		if err != nil {
			return err
		}
		if rep.Degraded || !rep.Solved {
			return fmt.Errorf("acloud-restart: building the log: a tick was degraded or unsolved")
		}
		return nil
	}
	if err := serveBurst(gen.initial()); err != nil {
		return err
	}
	for tick := 1; w.records < int64(restartLogRecords*w.scale); tick++ {
		if err := serveBurst(gen.burst(tick, burstSize)); err != nil {
			return err
		}
		w.records, w.logBytes = node.LogStats()
	}
	w.reference = node.Dump()
	w.cfg = prog.cfg
	w.cfg.Storage = w.store
	// The first replays pay for the page cache and the table files' first
	// truncation.
	for i := 0; i < max(1, int(restartWarmup*w.scale)); i++ {
		if _, err := w.op(nil, 0); err != nil {
			return err
		}
	}
	w.restarts, w.replayWall = 0, 0
	return nil
}

func (w *restartWorkload) op(t *tracer, opID int) (sample, error) {
	var readStart time.Time
	if t != nil {
		// ReplayNode reads the log itself; a separate read just before it
		// gives the length of the store.read_records span inside it.
		readStart = time.Now()
		if _, err := w.store.Log().ReadRecords(); err != nil {
			return sample{}, err
		}
	}
	begin := time.Now()
	node, err := core.ReplayNode("dc0", w.prog.res, w.cfg, nil)
	end := time.Now()
	if err != nil {
		return sample{}, fmt.Errorf("acloud-restart: %w", err)
	}
	w.restarts++
	if w.restarts%restartCheckEvery == 1 && node.Dump() != w.reference {
		w.failed++
	}
	d := end.Sub(begin)
	w.replayWall += d
	if t != nil {
		read := begin.Sub(readStart)
		w.readWall += read
		root := t.add(opID, 0, "op", begin, end)
		replay := t.add(opID, root, "core.replay", begin, end)
		t.attribute(opID, replay, "store.read_records", begin, read)
	}
	return sample{ops: 1, latency: d, busy: d, finished: time.Now()}, nil
}

func (w *restartWorkload) verify() error {
	if w.failed > 0 {
		return fmt.Errorf("acloud-restart: %d of %d checked restarts differ from the reference dump",
			w.failed, (w.restarts+restartCheckEvery-1)/restartCheckEvery)
	}
	node, err := core.ReplayNode("dc0", w.prog.res, w.cfg, nil)
	if err != nil {
		return fmt.Errorf("acloud-restart: final replay: %w", err)
	}
	if node.Dump() != w.reference {
		return fmt.Errorf("acloud-restart: final replay differs from the reference dump")
	}
	return nil
}

func (w *restartWorkload) close() error { return w.store.Close() }
