package cluster

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"repro/internal/analysis"
	"repro/internal/colog"
	"repro/internal/core"
	"repro/internal/transport"
)

// testSrc is a miniature distributed COP: each node picks per-item
// quantities minimizing weighted cost subject to a demand floor, and ships
// its decisions to the linked neighbor (the solve→replicate round shape of
// the real scenarios).
const testSrc = `
goal minimize C in cost(@X,C).
var pick(@X,D,V) forall item(@X,D) domain [0,5].

d1 cost(@X,SUM<E>) <- pick(@X,D,V), w(@X,D,W), E==V*W.
d2 total(@X,SUM<V>) <- pick(@X,D,V).
c1 total(@X,V) -> need(@X,N), V>=N.

// Continuous replication of decisions to the downstream neighbor. There is
// no protocol-level resync rule: materialization diffs suppress unchanged
// rows, so a rejoining subscriber re-learns lost decisions through the
// runtime's automatic anti-entropy exchange (the failure-injection tests
// exercise exactly this).
r1 got(@Y,X,D,V2) <- link(@X,Y), pick(@X,D,V), V2:=V.
`

func testProgram(t testing.TB) *analysis.Result {
	t.Helper()
	return analyzeSrc(t, testSrc)
}

func analyzeSrc(t testing.TB, src string) *analysis.Result {
	t.Helper()
	prog, err := colog.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	res, err := analysis.Analyze(prog, nil)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func sval(s string) colog.Value { return colog.StringVal(s) }
func ival(i int64) colog.Value  { return colog.IntVal(i) }

// ringSpec builds the spec for node i of an n-node ring: two items with
// node-specific weights, a demand floor, and a link to the next node.
func ringSpec(res *analysis.Result, i, n int) NodeSpec {
	addr := fmt.Sprintf("n%d", i)
	next := fmt.Sprintf("n%d", (i+1)%n)
	return NodeSpec{
		Addr:    addr,
		Program: res,
		Config: core.Config{
			SolverPropagate: true,
			Keys:            map[string][]int{"got": {0, 1, 2}},
		},
		Seed: func(nd *core.Node) error {
			for d, w := range []int64{int64(i) + 1, int64(i) + 3} {
				dn := fmt.Sprintf("d%d", d)
				if err := nd.Insert("item", sval(addr), sval(dn)); err != nil {
					return err
				}
				if err := nd.Insert("w", sval(addr), sval(dn), ival(w)); err != nil {
					return err
				}
			}
			if err := nd.Insert("need", sval(addr), ival(int64(3+i%2))); err != nil {
				return err
			}
			return nd.Insert("link", sval(addr), sval(next))
		},
	}
}

func buildRing(t testing.TB, o Options, n int) *Runtime {
	t.Helper()
	r := New(o)
	res := testProgram(t)
	for i := 0; i < n; i++ {
		if _, err := r.Spawn(ringSpec(res, i, n)); err != nil {
			t.Fatal(err)
		}
	}
	r.Settle()
	return r
}

// solveItems builds one solve item per live node.
func solveItems(r *Runtime) []Item {
	var items []Item
	for _, addr := range r.Addrs() {
		n := r.Node(addr)
		if n == nil {
			continue
		}
		items = append(items, Item{
			Label: "solve " + addr,
			Nodes: []string{addr},
			Run:   func() (*core.SolveResult, error) { return n.Solve(core.SolveOptions{}) },
		})
	}
	return items
}

// dump renders every node's got/pick tables for state comparison.
func dump(r *Runtime) string {
	var sb strings.Builder
	for _, addr := range r.Addrs() {
		n := r.Node(addr)
		if n == nil {
			continue
		}
		for _, pred := range []string{"pick", "got", "total", "cost", "note"} {
			for _, row := range n.Rows(pred) {
				sb.WriteString(core.NewTuple(pred, row...).String())
				sb.WriteByte('\n')
			}
		}
	}
	return sb.String()
}

// TestSimEpochDeterministicAcrossWorkers: the epoch barrier must make a
// concurrent sim-mode epoch byte-identical to a sequential one — same
// tables, same solver work, same message counters — at any pool size.
func TestClusterSimEpochDeterministicAcrossWorkers(t *testing.T) {
	type outcome struct {
		state string
		wire  transport.Stats
		nodes int64
	}
	run := func(workers int) outcome {
		r := buildRing(t, Options{Workers: workers, Latency: time.Millisecond}, 5)
		var nodes int64
		for epoch := 0; epoch < 3; epoch++ {
			st, err := r.RunEpoch(solveItems(r))
			if err != nil {
				t.Fatal(err)
			}
			if st.Solves != 5 {
				t.Fatalf("epoch %d solves = %d, want 5", epoch, st.Solves)
			}
			nodes += st.SolverNodes
			r.Advance(10 * time.Millisecond)
		}
		r.Settle()
		return outcome{state: dump(r), wire: r.TotalWire(), nodes: nodes}
	}
	seq := run(1)
	con := run(8)
	if seq.state != con.state {
		t.Fatalf("state diverged between workers=1 and workers=8:\n--- seq\n%s--- con\n%s", seq.state, con.state)
	}
	if seq.wire != con.wire {
		t.Fatalf("wire traffic diverged: seq=%+v con=%+v", seq.wire, con.wire)
	}
	if seq.nodes != con.nodes || seq.nodes == 0 {
		t.Fatalf("solver nodes diverged: seq=%d con=%d", seq.nodes, con.nodes)
	}
}

// TestEpochValidation: a duplicate spawn is refused; overlapping, unknown,
// and stopped nodes are rejected before anything runs, and sends from
// unlisted nodes surface as errors at the barrier.
func TestClusterEpochValidation(t *testing.T) {
	r := buildRing(t, Options{Workers: 2, Latency: time.Millisecond}, 3)
	noop := func() (*core.SolveResult, error) { return nil, nil }

	if _, err := r.Spawn(ringSpec(testProgram(t), 0, 3)); err == nil {
		t.Fatal("duplicate node address accepted")
	}

	if _, err := r.RunEpoch([]Item{
		{Label: "a", Nodes: []string{"n0"}, Run: noop},
		{Label: "b", Nodes: []string{"n0"}, Run: noop},
	}); err == nil {
		t.Fatal("overlapping items accepted")
	}
	if _, err := r.RunEpoch([]Item{{Label: "a", Nodes: []string{"nope"}, Run: noop}}); err == nil {
		t.Fatal("unknown node accepted")
	}
	if _, err := r.RunEpoch([]Item{{Label: "a", Nodes: nil, Run: noop}}); err == nil {
		t.Fatal("item without nodes accepted")
	}
	if err := r.StopNode("n2"); err != nil {
		t.Fatal(err)
	}
	if _, err := r.RunEpoch([]Item{{Label: "a", Nodes: []string{"n2"}, Run: noop}}); err == nil {
		t.Fatal("stopped node accepted")
	}

	// An item that touches a node it did not list: the send is refused and
	// reported at the barrier.
	n1 := r.Node("n1")
	_, err := r.RunEpoch([]Item{{
		Label: "sneaky",
		Nodes: []string{"n0"},
		Run: func() (*core.SolveResult, error) {
			return n1.Solve(core.SolveOptions{}) // ships from n1, owned by nobody
		},
	}})
	if err == nil || !strings.Contains(err.Error(), "without being listed") {
		t.Fatalf("unlisted sender not surfaced: %v", err)
	}
}

// TestClusterFailureInjectionAndRejoin: a stopped node loses its traffic;
// after a restart the runtime's automatic anti-entropy resync pulls the
// decisions the node missed — no protocol-level resync rules — and the
// restart is a statistics boundary (post-restart transport counters start
// at zero, resync work is accounted in EpochStats).
func TestClusterFailureInjectionAndRejoin(t *testing.T) {
	r := buildRing(t, Options{Workers: 4, Latency: time.Millisecond}, 4)
	// Several churn epochs, so the pre-failure traffic history dwarfs the
	// later resync exchange (the stats-reset assertion relies on it).
	for epoch := 0; epoch < 4; epoch++ {
		if _, err := r.RunEpoch(solveItems(r)); err != nil {
			t.Fatal(err)
		}
		r.Settle()
		for i, addr := range r.Addrs() {
			if err := r.Node(addr).Insert("need", sval(addr), ival(int64(5+epoch+i))); err != nil {
				t.Fatal(err)
			}
		}
	}
	if len(r.Node("n1").Rows("got")) == 0 {
		t.Fatal("no replicated decisions before failure")
	}

	// Drop n1. Its upstream neighbor n0 changes its demand and re-solves;
	// the shipped update is lost in flight.
	if err := r.StopNode("n1"); err != nil {
		t.Fatal(err)
	}
	preStop := r.Transport().NodeStats("n1")
	if r.Node("n1") != nil {
		t.Fatal("stopped node still visible")
	}
	if err := r.Node("n0").Insert("need", sval("n0"), ival(7)); err != nil {
		t.Fatal(err)
	}
	st, err := r.RunEpoch(solveItems(r)) // three live nodes
	if err != nil {
		t.Fatal(err)
	}
	if st.Items != 3 {
		t.Fatalf("items = %d, want 3", st.Items)
	}
	r.Settle()
	if st := r.History()[len(r.History())-1]; st.MsgsDropped == 0 {
		t.Fatalf("no drops recorded while n1 was down: %+v", st)
	}

	// Rejoin: a fresh instance with only seed facts, then the automatic
	// digest exchange. The decisions n0 shipped while n1 was down were
	// dropped in flight, and materialization diffs mean they would never
	// re-ship on their own — the anti-entropy pull is what re-converges
	// the rejoined node.
	n1, err := r.RestartNode("n1")
	if err != nil {
		t.Fatal(err)
	}
	got := n1.Rows("got")
	if len(got) == 0 {
		t.Fatal("rejoined node received no replicated decisions")
	}
	// The rejoined node must see n0's full current decision state — the
	// solve that happened while it was down included.
	var total int64
	for _, row := range r.Node("n0").Rows("pick") {
		total += row[2].I
	}
	if total < 7 {
		t.Fatalf("n0 picks sum to %d, want >= 7 (the need update while n1 was down)", total)
	}
	var replicated int64
	for _, row := range got {
		if row[1].S == "n0" {
			replicated += row[3].I
		}
	}
	if replicated != total {
		t.Fatalf("rejoined node sees %d units from n0, want %d", replicated, total)
	}

	// The resync work is visible in the statistics, attributed to the last
	// epoch's window.
	hist := r.History()
	last := hist[len(hist)-1]
	if last.ResyncRows == 0 || last.ResyncBytes == 0 {
		t.Fatalf("resync not accounted: %+v", last)
	}

	// Restart boundary: the transport counters of the restarted node were
	// reset, so they now reflect only post-restart traffic (the resync
	// exchange), not the pre-failure epochs. Counters are monotonic, so
	// observing them *lower* than at stop time pins the reset.
	restarted := r.Transport().NodeStats("n1")
	if restarted.MsgsSent >= preStop.MsgsSent || restarted.MsgsReceived >= preStop.MsgsReceived {
		t.Fatalf("restarted node's counters not reset: post-restart %+v vs pre-failure %+v",
			restarted, preStop)
	}
	// History still accounts for every message, including the retired
	// pre-failure counters.
	var msgs int64
	for _, st := range r.History() {
		msgs += st.MsgsSent
	}
	if total := r.TotalWire().MsgsSent; msgs != total {
		t.Fatalf("history accounts %d msgs, transport saw %d", msgs, total)
	}
}

// TestBatchDeltasReducesMessages: the same epochs with per-(epoch,
// destination) batching produce the same tables with fewer messages.
func TestClusterBatchDeltasReducesMessages(t *testing.T) {
	run := func(batch bool) (string, transport.Stats) {
		r := buildRing(t, Options{Workers: 4, Latency: time.Millisecond, BatchDeltas: batch}, 5)
		for epoch := 0; epoch < 2; epoch++ {
			if _, err := r.RunEpoch(solveItems(r)); err != nil {
				t.Fatal(err)
			}
			r.Advance(10 * time.Millisecond)
			// Churn so the second epoch re-ships decisions.
			for i, addr := range r.Addrs() {
				if err := r.Node(addr).Insert("need", sval(addr), ival(int64(5+i))); err != nil {
					t.Fatal(err)
				}
			}
		}
		r.Settle()
		return dump(r), r.TotalWire()
	}
	plainState, plain := run(false)
	batchState, batched := run(true)
	if plainState != batchState {
		t.Fatalf("state diverged under batching:\n--- plain\n%s--- batched\n%s", plainState, batchState)
	}
	if batched.MsgsSent >= plain.MsgsSent {
		t.Fatalf("batching did not reduce messages: %d >= %d", batched.MsgsSent, plain.MsgsSent)
	}
	if batched.BytesSent > plain.BytesSent {
		t.Fatalf("batching grew bytes: %d > %d", batched.BytesSent, plain.BytesSent)
	}
}

// TestUDPModeRoundTrip: the same ring runs free-running over real sockets.
func TestClusterUDPModeRoundTrip(t *testing.T) {
	r := New(Options{Mode: ModeUDP, Workers: 4})
	defer r.Close()
	res := testProgram(t)
	for i := 0; i < 3; i++ {
		if _, err := r.Spawn(ringSpec(res, i, 3)); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := r.RunEpoch(solveItems(r)); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(3 * time.Second)
	for {
		ok := true
		for _, addr := range r.Addrs() {
			if len(r.Node(addr).Rows("got")) == 0 {
				ok = false
			}
		}
		if ok {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("decisions never replicated over UDP")
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestHistoryAccountsAllTraffic: every message lands in some epoch's
// window; settle traffic is folded into the last epoch.
func TestClusterHistoryAccountsAllTraffic(t *testing.T) {
	r := buildRing(t, Options{Workers: 2, Latency: time.Millisecond}, 3)
	for epoch := 0; epoch < 2; epoch++ {
		if _, err := r.RunEpoch(solveItems(r)); err != nil {
			t.Fatal(err)
		}
		r.Settle()
	}
	hist := r.History()
	if len(hist) != 2 {
		t.Fatalf("history length = %d, want 2", len(hist))
	}
	var msgs int64
	for _, st := range hist {
		msgs += st.MsgsSent
	}
	if total := r.TotalWire().MsgsSent; msgs != total {
		t.Fatalf("history accounts %d msgs, transport saw %d", msgs, total)
	}
}
