package store_test

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"testing"

	"repro/internal/acloud"
	"repro/internal/analysis"
	"repro/internal/colog"
	"repro/internal/core"
	"repro/internal/programs"
	"repro/internal/serve"
	"repro/internal/store"
	"repro/internal/transport"
)

// The commit-point suite: a serving ACloud node on the disk backend, where
// log records are written unsynced and made durable once per tick, before
// the tick's decision is returned (core's commit points).

// durableServing is one serving ACloud data center over a given store.
type durableServing struct {
	res *analysis.Result
	cfg core.Config
	srv *serve.Server
	gen func(rng *rand.Rand, n int) []serve.Event
}

func newDurableServing(t *testing.T, st store.Store, scfg serve.Config) *durableServing {
	t.Helper()
	entry := programs.ACloud(false, 0)
	d := &durableServing{res: entry.Analyze(), cfg: entry.Config}
	d.cfg.SolverMaxNodes = 4000
	d.cfg.SolverPropagate = true
	d.cfg.SolverIncremental = true
	d.cfg.SolverWarmStart = true
	d.cfg.Keys = map[string][]int{"vmRaw": {0}, "origin": {0}, "vm": {0}}
	d.cfg.Storage = st
	node, err := core.NewNode("dc0", d.res, d.cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	for h := 0; h < 3; h++ {
		hid := colog.StringVal(fmt.Sprintf("h%d", h))
		if err := node.Insert("host", hid, colog.IntVal(0), colog.IntVal(0)); err != nil {
			t.Fatal(err)
		}
		if err := node.Insert("hostMemThres", hid, colog.IntVal(32*1024)); err != nil {
			t.Fatal(err)
		}
	}
	scfg.Keys = map[string][]int{"vmRaw": {0}}
	d.srv = serve.NewServer(node, scfg)
	// The ACloud serving scenario's churn generator: spawns, CPU readings
	// (keyed replaces) and stops, always feasible.
	sc, err := acloud.NewServing(acloud.DefaultServingParams(), serve.Config{})
	if err != nil {
		t.Fatal(err)
	}
	d.gen = sc.Gen
	return d
}

func (d *durableServing) offer(t *testing.T, events []serve.Event) {
	t.Helper()
	for _, ev := range events {
		if err := d.srv.Offer(ev); err != nil {
			t.Fatal(err)
		}
	}
}

// replay rebuilds the node from st's log alone.
func (d *durableServing) replay(st store.Store) (*core.Node, error) {
	cfg := d.cfg
	cfg.Storage = st
	return core.ReplayNode("dc0", d.res, cfg, nil)
}

// TestServingSyncsOncePerTick is the group-commit gate: on a disk store
// with fsync, every tick that logged a record issues exactly one fsync and
// a tick that logged nothing issues none, however many records the tick's
// churn wrote. The log it leaves replays to the live node.
func TestServingSyncsOncePerTick(t *testing.T) {
	st, err := store.Open("disk", t.TempDir(), true)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	// Every fourth tick is idle and interrupted at once: it neither admits
	// churn nor materializes, so it logs nothing.
	tick := 0
	idle := func() bool { return tick%4 == 3 }
	d := newDurableServing(t, st, serve.Config{NextInterrupt: func() func() bool {
		if idle() {
			return func() bool { return true }
		}
		return nil
	}})
	node, wal := d.srv.Node(), st.Log()
	rng := rand.New(rand.NewSource(3))
	var logging, quiet int
	for ; tick < 40; tick++ {
		if !idle() {
			d.offer(t, d.gen(rng, 1+rng.Intn(12)))
		}
		recs0, _ := node.LogStats()
		syncs0 := store.SyncCount(wal)
		if _, err := d.srv.TickOnce(); err != nil {
			t.Fatalf("tick %d: %v", tick, err)
		}
		recs, _ := node.LogStats()
		syncs := store.SyncCount(wal) - syncs0
		want := int64(0)
		if recs > recs0 {
			want = 1
			logging++
		} else {
			quiet++
		}
		if syncs != want {
			t.Fatalf("tick %d logged %d records and issued %d fsyncs, want %d", tick, recs-recs0, syncs, want)
		}
		if store.Unsynced(wal) {
			t.Fatalf("tick %d returned its decision with unsynced records behind it", tick)
		}
	}
	if logging == 0 || quiet == 0 {
		t.Fatalf("script exercised %d logging and %d quiet ticks, want both", logging, quiet)
	}
	if recs, _ := node.LogStats(); recs < int64(2*logging) {
		t.Fatalf("only %d records over %d logging ticks: nothing was grouped", recs, logging)
	}
	replayed, err := d.replay(st)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := replayed.Dump(), node.Dump(); got != want {
		t.Fatalf("replayed node differs from the live node:\n--- live\n%s\n--- replayed\n%s", want, got)
	}
}

// TestServingCommitFailureFailsTick: once the log cannot take a record,
// the next tick's commit fails and TickOnce returns the error instead of a
// decision.
func TestServingCommitFailureFailsTick(t *testing.T) {
	st, err := store.Open("disk", t.TempDir(), true)
	if err != nil {
		t.Fatal(err)
	}
	d := newDurableServing(t, st, serve.Config{})
	rng := rand.New(rand.NewSource(5))
	d.offer(t, d.gen(rng, 8))
	if _, err := d.srv.TickOnce(); err != nil {
		t.Fatal(err)
	}
	if err := st.Log().Close(); err != nil {
		t.Fatal(err)
	}
	d.offer(t, d.gen(rng, 8))
	rep, err := d.srv.TickOnce()
	if err == nil {
		t.Fatalf("tick over a closed log succeeded: %+v", rep)
	}
	if rep != nil {
		t.Fatalf("failed tick published a report: %+v", rep)
	}
	if ticks := d.srv.StatsSnapshot().Ticks; ticks != 1 {
		t.Fatalf("failed tick was counted: %d ticks", ticks)
	}
}

// checkedTransport is a loopback transport that, at every Send, records
// whether the sender's log still held unsynced records.
type checkedTransport struct {
	*transport.Loopback
	logs            map[string]*store.WAL
	sent, premature int
}

func (c *checkedTransport) Send(from, to string, payload []byte) error {
	c.sent++
	if store.Unsynced(c.logs[from]) {
		c.premature++
	}
	return c.Loopback.Send(from, to, payload)
}

// TestFlushCommitsBeforeSend: an update whose derivations ship a tuple to
// a peer commits the sender's log before the message reaches the
// transport, with one fsync per flushed update.
func TestFlushCommitsBeforeSend(t *testing.T) {
	prog, err := colog.Parse(`r1 seen(@Y,X,V) <- link(@X,Y), val(@X,V).`)
	if err != nil {
		t.Fatal(err)
	}
	res, err := analysis.Analyze(prog, nil)
	if err != nil {
		t.Fatal(err)
	}
	tr := &checkedTransport{Loopback: transport.NewLoopback(), logs: map[string]*store.WAL{}}
	nodes := map[string]*core.Node{}
	for _, addr := range []string{"a", "b"} {
		st, err := store.Open("disk", filepath.Join(t.TempDir(), addr), true)
		if err != nil {
			t.Fatal(err)
		}
		defer st.Close()
		tr.logs[addr] = st.Log()
		if nodes[addr], err = core.NewNode(addr, res, core.Config{Storage: st}, tr); err != nil {
			t.Fatal(err)
		}
	}
	a, wal := nodes["a"], tr.logs["a"]
	if err := a.Insert("link", colog.StringVal("a"), colog.StringVal("b")); err != nil {
		t.Fatal(err)
	}
	for v := int64(0); v < 5; v++ {
		syncs := store.SyncCount(wal)
		if err := a.Insert("val", colog.StringVal("a"), colog.IntVal(v)); err != nil {
			t.Fatal(err)
		}
		if got := store.SyncCount(wal) - syncs; got != 1 {
			t.Fatalf("update %d shipped a tuple with %d fsyncs, want 1", v, got)
		}
	}
	if tr.sent != 5 || tr.premature != 0 {
		t.Fatalf("%d sends, %d of them before the sender's log was synced", tr.sent, tr.premature)
	}
	if got := len(nodes["b"].Rows("seen")); got != 5 {
		t.Fatalf("peer holds %d shipped rows, want 5", got)
	}
}

// TestWALTortureServingCommitPoints is the serving sibling of the cluster
// crash-point gate: it records a serving node's log written under deferred
// sync, then cuts it at every record boundary, every torn mid-record
// midpoint, and every commit offset (the log's end when a tick returned).
// Every cut must replay without error, and a cut at a commit offset must
// rebuild exactly the node the live run had after that tick.
func TestWALTortureServingCommitPoints(t *testing.T) {
	st, err := store.Open("disk", t.TempDir(), true)
	if err != nil {
		t.Fatal(err)
	}
	d := newDurableServing(t, st, serve.Config{})
	path := st.Log().Path()
	rng := rand.New(rand.NewSource(11))
	commits := map[int64]string{} // commit offset -> live dump at that tick
	for tick := 0; tick < 12; tick++ {
		d.offer(t, d.gen(rng, 1+rng.Intn(10)))
		if _, err := d.srv.TickOnce(); err != nil {
			t.Fatal(err)
		}
		if store.Unsynced(st.Log()) {
			t.Fatalf("tick %d returned with unsynced records", tick)
		}
		fi, err := os.Stat(path)
		if err != nil {
			t.Fatal(err)
		}
		commits[fi.Size()] = d.srv.Node().Dump()
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	recorded, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}

	ends := store.WALRecordEnds(recorded)
	boundary := map[int64]bool{}
	for _, e := range ends {
		boundary[e] = true
	}
	seen := map[int64]bool{}
	var offsets []int64
	add := func(o int64) {
		if o >= 0 && o <= int64(len(recorded)) && !seen[o] {
			seen[o] = true
			offsets = append(offsets, o)
		}
	}
	add(0)
	add(4) // torn header
	prev := int64(0)
	for _, e := range ends {
		if e > prev+1 {
			add(prev + (e-prev)/2)
		}
		add(e)
		prev = e
	}
	for off := range commits {
		if !boundary[off] {
			t.Fatalf("commit offset %d is not a record boundary", off)
		}
		add(off)
	}
	sort.Slice(offsets, func(i, j int) bool { return offsets[i] < offsets[j] })
	t.Logf("replaying %d cuts of a %d-byte log (%d records, %d commit offsets)",
		len(offsets), len(recorded), len(ends)-1, len(commits))

	for _, off := range offsets {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, "wal.log"), recorded[:off], 0o644); err != nil {
			t.Fatal(err)
		}
		cut, err := store.Open("disk", dir, false)
		if err != nil {
			t.Fatalf("open cut@%d: %v", off, err)
		}
		n, err := d.replay(cut)
		if err != nil {
			t.Fatalf("replay cut@%d: %v", off, err)
		}
		if n.LastError != nil {
			t.Fatalf("replay cut@%d: %v", off, n.LastError)
		}
		if want, ok := commits[off]; ok && n.Dump() != want {
			t.Fatalf("cut@%d (a commit offset) diverged from the live node at that tick:\n--- live\n%s\n--- replayed\n%s",
				off, want, n.Dump())
		}
		if err := cut.Close(); err != nil {
			t.Fatal(err)
		}
	}
}
