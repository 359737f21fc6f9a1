package cluster

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/analysis"
	"repro/internal/colog"
	"repro/internal/core"
	"repro/internal/transport"
)

// Engine behaviour over the runtime: localized rules, remote aggregation,
// batching, message loss, and real sockets, each driven through nodes
// spawned on a Runtime. Every fact is inserted at the node its location
// column names, so the tests spell the owner out.

// echoSrc ships every data row to the linked peer (r1) and sums the rows
// of a node's in-links at that node (d0, a remote aggregate).
const echoSrc = `
d0 remoteSum(@X,SUM<R>) <- link(@Y,X), data(@Y,R), probe(@X).
r1 echo(@Y,R) <- link(@X,Y), data(@X,R).
`

// distSrc and centSrc are the same logic with and without location
// specifiers: the localization rewrite plus network shipping must be
// semantically transparent.
const distSrc = `
d0 out(@X,D,SUM<R>) <- link(@Y,X), store(@Y,D,R), want(@X,D).
`

const centSrc = `
d0 out(X,D,SUM<R>) <- link(Y,X), store(Y,D,R), want(X,D).
`

// spawnPlain spawns one node per address, all running res with the zero
// engine configuration.
func spawnPlain(t testing.TB, r *Runtime, res *analysis.Result, addrs ...string) {
	t.Helper()
	for _, addr := range addrs {
		if _, err := r.Spawn(NodeSpec{Addr: addr, Program: res}); err != nil {
			t.Fatal(err)
		}
	}
}

// fact is one update a test applies at a named node.
type fact struct {
	del  bool
	pred string
	vals []colog.Value
}

func (f fact) apply(n *core.Node) error {
	if f.del {
		return n.Delete(f.pred, f.vals...)
	}
	return n.Insert(f.pred, f.vals...)
}

// applyEpoch runs one epoch with one item per node in byNode, each
// applying that node's facts in order; the network is settled afterwards.
func applyEpoch(t testing.TB, r *Runtime, byNode map[string][]fact) {
	t.Helper()
	var items []Item
	for _, addr := range r.Addrs() {
		facts, n := byNode[addr], r.Node(addr)
		if len(facts) == 0 {
			continue
		}
		items = append(items, Item{Label: "load " + addr, Nodes: []string{addr}, Run: func() (*core.SolveResult, error) {
			for _, f := range facts {
				if err := f.apply(n); err != nil {
					return nil, err
				}
			}
			return nil, nil
		}})
	}
	if _, err := r.RunEpoch(items); err != nil {
		t.Fatal(err)
	}
	r.Settle()
}

// TestClusterDistributedAggregation: two nodes feed a remote SUM at a
// third over the simulated network, and a remote retraction maintains it.
func TestClusterDistributedAggregation(t *testing.T) {
	r := New(Options{Workers: 2, Latency: 5 * time.Millisecond})
	defer r.Close()
	spawnPlain(t, r, analyzeSrc(t, echoSrc), "a", "b", "c")
	applyEpoch(t, r, map[string][]fact{
		"a": {{pred: "probe", vals: []colog.Value{sval("a")}}},
		"b": {{pred: "link", vals: []colog.Value{sval("b"), sval("a")}}, {pred: "data", vals: []colog.Value{sval("b"), ival(4)}}},
		"c": {{pred: "link", vals: []colog.Value{sval("c"), sval("a")}}, {pred: "data", vals: []colog.Value{sval("c"), ival(6)}}},
	})
	a := r.Node("a")
	if !a.Contains("remoteSum", sval("a"), ival(10)) {
		t.Fatalf("aggregate missing:\n%s", a.Dump())
	}
	applyEpoch(t, r, map[string][]fact{
		"c": {{del: true, pred: "data", vals: []colog.Value{sval("c"), ival(6)}}},
	})
	if !a.Contains("remoteSum", sval("a"), ival(4)) {
		t.Fatalf("aggregate not maintained after remote delete:\n%s", a.Dump())
	}
}

// TestClusterHoldOutboxBatchesPerDestination: with Options.BatchDeltas the
// runtime holds each item's outbox, so every delta a node ships during an
// epoch leaves as one frame per destination, and the receiver ends in the
// same state as an unbatched run.
func TestClusterHoldOutboxBatchesPerDestination(t *testing.T) {
	res := analyzeSrc(t, echoSrc)
	run := func(batch bool) (transport.Stats, []string) {
		t.Helper()
		r := New(Options{Workers: 2, Latency: time.Millisecond, BatchDeltas: batch})
		defer r.Close()
		spawnPlain(t, r, res, "a", "b")
		if err := r.Node("a").Insert("link", sval("a"), sval("b")); err != nil {
			t.Fatal(err)
		}
		r.Settle()
		before := r.Transport().NodeStats("a")
		var load []fact
		for i := int64(0); i < 5; i++ {
			load = append(load, fact{pred: "data", vals: []colog.Value{sval("a"), ival(i)}})
		}
		applyEpoch(t, r, map[string][]fact{"a": load})
		after := r.Transport().NodeStats("a")
		var echo []string
		for _, row := range r.Node("b").Rows("echo") {
			echo = append(echo, row[1].String())
		}
		sort.Strings(echo)
		return transport.Stats{MsgsSent: after.MsgsSent - before.MsgsSent, BytesSent: after.BytesSent - before.BytesSent}, echo
	}
	plain, plainEcho := run(false)
	batched, batchedEcho := run(true)
	// Each insert ships two deltas to b (the d0 localization table and the
	// r1 echo); held and batched they leave as one frame.
	if plain.MsgsSent != 10 || batched.MsgsSent != 1 {
		t.Fatalf("msgs sent: plain=%d batched=%d, want 10/1", plain.MsgsSent, batched.MsgsSent)
	}
	if batched.BytesSent >= plain.BytesSent {
		t.Fatalf("batching grew bytes: %d >= %d", batched.BytesSent, plain.BytesSent)
	}
	if got, want := strings.Join(batchedEcho, ","), "0,1,2,3,4"; got != want || strings.Join(plainEcho, ",") != want {
		t.Fatalf("echo rows: batched=%v plain=%v, want %s", batchedEcho, plainEcho, want)
	}
}

// TestClusterDistributedEqualsCentralized feeds identical facts to a
// simulated 3-node runtime and to a single centralized engine and requires
// identical results — the paper's claim that the localization rewrite
// realizes the original rule semantics.
func TestClusterDistributedEqualsCentralized(t *testing.T) {
	distRes := analyzeSrc(t, distSrc)
	centRes := analyzeSrc(t, centSrc)
	rng := rand.New(rand.NewSource(17))
	addrs := []string{"a", "b", "c"}
	demands := []string{"d1", "d2"}

	for trial := 0; trial < 40; trial++ {
		r := New(Options{Workers: 2, Latency: time.Millisecond})
		spawnPlain(t, r, distRes, addrs...)
		cent, err := core.NewNode("solo", centRes, core.Config{}, nil)
		if err != nil {
			t.Fatal(err)
		}
		// Every fact's location column is its first, so at names the node.
		byNode := map[string][]fact{}
		apply := func(at string, pred string, vals ...colog.Value) {
			t.Helper()
			f := fact{pred: pred, vals: vals}
			if err := f.apply(cent); err != nil {
				t.Fatal(err)
			}
			byNode[at] = append(byNode[at], f)
		}
		for _, from := range addrs {
			for _, to := range addrs {
				if from != to && rng.Intn(2) == 0 {
					apply(from, "link", sval(from), sval(to))
				}
			}
		}
		for i := 0; i < 2+rng.Intn(6); i++ {
			at := addrs[rng.Intn(len(addrs))]
			apply(at, "store", sval(at), sval(demands[rng.Intn(len(demands))]), ival(int64(rng.Intn(9))))
		}
		for _, a := range addrs {
			if rng.Intn(2) == 0 {
				apply(a, "want", sval(a), sval(demands[rng.Intn(len(demands))]))
			}
		}
		applyEpoch(t, r, byNode)

		want := map[string]bool{}
		for _, row := range cent.Rows("out") {
			want[fmt.Sprint(row)] = true
		}
		got := map[string]bool{}
		for _, addr := range addrs {
			for _, row := range r.Node(addr).Rows("out") {
				if row[0].S != addr {
					t.Fatalf("trial %d: out row %v landed on wrong node %s", trial, row, addr)
				}
				got[fmt.Sprint(row)] = true
			}
		}
		if len(got) != len(want) {
			t.Fatalf("trial %d: distributed %d rows vs centralized %d\ncentral:\n%s",
				trial, len(got), len(want), cent.Dump())
		}
		for k := range want {
			if !got[k] {
				t.Fatalf("trial %d: centralized row %s missing from distributed run", trial, k)
			}
		}
		r.Close()
	}
}

// TestClusterMessageLossKeepsEngineUsable: the transports provide no
// retransmission (UDP semantics, matching the paper's setup); a dropped
// delta leaves the receiver's view stale, but the engine stays consistent
// and usable.
func TestClusterMessageLossKeepsEngineUsable(t *testing.T) {
	r := New(Options{Workers: 2, Latency: time.Millisecond})
	defer r.Close()
	spawnPlain(t, r, analyzeSrc(t, distSrc), "a", "b")
	simTr := r.Transport().(interface{ DropEvery(int64) })
	simTr.DropEvery(1) // drop everything
	applyEpoch(t, r, map[string][]fact{
		"a": {{pred: "want", vals: []colog.Value{sval("a"), sval("d1")}}},
		"b": {{pred: "link", vals: []colog.Value{sval("b"), sval("a")}}, {pred: "store", vals: []colog.Value{sval("b"), sval("d1"), ival(5)}}},
	})
	if len(r.Node("a").Rows("out")) != 0 {
		t.Fatal("tuple arrived despite total message loss")
	}
	// After the loss stops, fresh deltas flow; lost ones are NOT
	// retransmitted (at-most-once delivery), so the receiver's aggregate
	// reflects only the delivered tuple.
	simTr.DropEvery(0)
	applyEpoch(t, r, map[string][]fact{
		"b": {{pred: "store", vals: []colog.Value{sval("b"), sval("d1"), ival(3)}}},
	})
	if a := r.Node("a"); !a.Contains("out", sval("a"), sval("d1"), ival(3)) {
		t.Fatalf("engine did not keep working after loss:\n%s", a.Dump())
	}
}

// waitFor polls cond until it holds or the deadline passes.
func waitFor(d time.Duration, cond func() bool) bool {
	deadline := time.Now().Add(d)
	for !cond() {
		if time.Now().After(deadline) {
			return false
		}
		time.Sleep(10 * time.Millisecond)
	}
	return true
}

// TestClusterUDPEcho: a localized rule ships its head over real sockets.
func TestClusterUDPEcho(t *testing.T) {
	r := New(Options{Mode: ModeUDP})
	defer r.Close()
	spawnPlain(t, r, analyzeSrc(t, echoSrc), "u1", "u2")
	u1, u2 := r.Node("u1"), r.Node("u2")
	if err := u1.Insert("link", sval("u1"), sval("u2")); err != nil {
		t.Fatal(err)
	}
	if err := u1.Insert("data", sval("u1"), ival(9)); err != nil {
		t.Fatal(err)
	}
	if !waitFor(2*time.Second, func() bool { return u2.Contains("echo", sval("u2"), ival(9)) }) {
		t.Fatalf("echo tuple never arrived over UDP:\n%s", u2.Dump())
	}
}

// TestClusterConcurrentInsertsUDP hammers one UDP node from several
// goroutines while its deltas ship to a peer; the per-node mutex must keep
// every table consistent.
func TestClusterConcurrentInsertsUDP(t *testing.T) {
	r := New(Options{Mode: ModeUDP})
	defer r.Close()
	spawnPlain(t, r, analyzeSrc(t, echoSrc), "ca", "cb")
	ca, cb := r.Node("ca"), r.Node("cb")
	if err := ca.Insert("link", sval("ca"), sval("cb")); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	const workers, perWorker = 4, 25
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				if err := ca.Insert("data", sval("ca"), ival(int64(w*1000+i))); err != nil {
					t.Errorf("insert: %v", err)
					return
				}
			}
		}()
	}
	wg.Wait()
	if got := len(ca.Rows("data")); got != workers*perWorker {
		t.Fatalf("data rows = %d, want %d", got, workers*perWorker)
	}
	// The echo rule ships each data row to cb; wait for delivery.
	if !waitFor(3*time.Second, func() bool { return len(cb.Rows("echo")) == workers*perWorker }) {
		t.Fatalf("echo rows = %d, want %d", len(cb.Rows("echo")), workers*perWorker)
	}
}
