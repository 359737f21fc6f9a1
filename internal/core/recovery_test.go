package core

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"strings"
	"testing"
	"time"

	"repro/internal/analysis"
	"repro/internal/colog"
	"repro/internal/sim"
	"repro/internal/store"
	"repro/internal/transport"
)

const recoverySrc = `
goal minimize C in cost(@X,C).
var pick(@X,D,V) forall item(@X,D) domain [0,5].

d1 cost(@X,SUM<E>) <- pick(@X,D,V), w(@X,D,W), E==V*W.
d2 total(@X,SUM<V>) <- pick(@X,D,V).
c1 total(@X,V) -> need(@X,N), V>=N.

r1 got(@Y,X,D,V2) <- link(@X,Y), pick(@X,D,V), V2:=V.
`

func recoveryProgram(t testing.TB) *analysis.Result {
	t.Helper()
	prog, err := colog.Parse(recoverySrc)
	if err != nil {
		t.Fatal(err)
	}
	res, err := analysis.Analyze(prog, nil)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func recoveryConfig() Config {
	return Config{
		SolverPropagate: true,
		Keys:            map[string][]int{"got": {0, 1, 2}},
	}
}

func seedRecoveryNode(t testing.TB, n *Node, addr, next string) {
	t.Helper()
	for d, w := range []int64{2, 4} {
		dn := fmt.Sprintf("d%d", d)
		if err := n.Insert("item", sval(addr), sval(dn)); err != nil {
			t.Fatal(err)
		}
		if err := n.Insert("w", sval(addr), sval(dn), ival(w)); err != nil {
			t.Fatal(err)
		}
	}
	if err := n.Insert("need", sval(addr), ival(3)); err != nil {
		t.Fatal(err)
	}
	if next != "" {
		if err := n.Insert("link", sval(addr), sval(next)); err != nil {
			t.Fatal(err)
		}
	}
}

// nodeState renders everything observable about a node's evaluation state:
// all table rows, sorted.
func nodeState(n *Node) string {
	var sb strings.Builder
	names := n.TableNames()
	for i := 1; i < len(names); i++ {
		for j := i; j > 0 && names[j] < names[j-1]; j-- {
			names[j], names[j-1] = names[j-1], names[j]
		}
	}
	for _, name := range names {
		for _, row := range n.Rows(name) {
			sb.WriteString(NewTuple(name, row...).String())
			sb.WriteByte('\n')
		}
	}
	return sb.String()
}

// TestCheckpointRoundTrip: exporting a node's state and restoring it must
// reproduce the node exactly — same rows, and byte-identical re-export —
// and the restored node must behave identically under further updates and
// solves (arrival-order seqs, aggregate views, and materialization memory
// all survive).
func TestCheckpointRoundTrip(t *testing.T) {
	res := recoveryProgram(t)
	n, err := NewNode("a", res, recoveryConfig(), nil)
	if err != nil {
		t.Fatal(err)
	}
	seedRecoveryNode(t, n, "a", "")
	if _, err := n.Solve(SolveOptions{}); err != nil {
		t.Fatal(err)
	}
	// Churn: a keyed replace and a delete/re-insert to exercise seq
	// preservation and freed-seq tombstones.
	if err := n.Insert("need", sval("a"), ival(5)); err != nil {
		t.Fatal(err)
	}
	if err := n.Delete("w", sval("a"), sval("d0"), ival(2)); err != nil {
		t.Fatal(err)
	}
	if err := n.Insert("w", sval("a"), sval("d0"), ival(2)); err != nil {
		t.Fatal(err)
	}
	if _, err := n.Solve(SolveOptions{}); err != nil {
		t.Fatal(err)
	}

	cp, err := n.ExportCheckpoint()
	if err != nil {
		t.Fatal(err)
	}
	restored, err := RestoreNode("a", res, recoveryConfig(), nil, cp)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := nodeState(restored), nodeState(n); got != want {
		t.Fatalf("restored state diverged:\n--- original\n%s--- restored\n%s", want, got)
	}
	cp2, err := restored.ExportCheckpoint()
	if err != nil {
		t.Fatal(err)
	}
	if string(cp2) != string(cp) {
		t.Fatal("re-exported checkpoint is not byte-identical")
	}

	// Behavioral equivalence: the same update script and solve must take
	// both nodes to identical states with identical solver traces.
	for _, node := range []*Node{n, restored} {
		if err := node.Insert("need", sval("a"), ival(6)); err != nil {
			t.Fatal(err)
		}
		if err := node.Delete("item", sval("a"), sval("d1")); err != nil {
			t.Fatal(err)
		}
		if err := node.Insert("item", sval("a"), sval("d1")); err != nil {
			t.Fatal(err)
		}
	}
	r1, err := n.Solve(SolveOptions{})
	if err != nil {
		t.Fatal(err)
	}
	r2, err := restored.Solve(SolveOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if r1.Objective != r2.Objective || r1.Stats.Nodes != r2.Stats.Nodes {
		t.Fatalf("post-restore solve diverged: objective %g/%g nodes %d/%d",
			r1.Objective, r2.Objective, r1.Stats.Nodes, r2.Stats.Nodes)
	}
	if got, want := nodeState(restored), nodeState(n); got != want {
		t.Fatalf("post-restore behavior diverged:\n--- original\n%s--- restored\n%s", want, got)
	}
}

// TestCheckpointRejectsMalformed: corrupt checkpoints error, never panic.
func TestCheckpointRejectsMalformed(t *testing.T) {
	res := recoveryProgram(t)
	n, err := NewNode("a", res, recoveryConfig(), nil)
	if err != nil {
		t.Fatal(err)
	}
	seedRecoveryNode(t, n, "a", "")
	cp, err := n.ExportCheckpoint()
	if err != nil {
		t.Fatal(err)
	}
	// Without a solve or a link the checkpoint ends with three zero counts:
	// the materialization section and both mirror sections. Counts of 2^62
	// spliced in there must not size an allocation.
	if !bytes.HasSuffix(cp, []byte{0, 0, 0}) {
		t.Fatalf("checkpoint does not end with empty materialization and mirror sections: %x", cp)
	}
	tail := cp[:len(cp)-3]
	splice := func(parts ...[]byte) []byte {
		return bytes.Join(append([][]byte{tail}, parts...), nil)
	}
	huge := binary.AppendUvarint(nil, 1<<62)
	bad := [][]byte{
		nil,
		{},
		{0xFF},
		append(append([]byte(nil), cp...), 0x01),
		splice(huge, []byte{0, 0}), // materialization count
		splice([]byte{1}, AppendWireString(nil, "cost"), huge, []byte{0, 0}), // tuple count
		splice([]byte{0}, huge, []byte{0}),                                   // mirror peer count
		splice([]byte{0, 1}, AppendWireString(nil, "b"), huge),               // mirror table count
	}
	for i := range cp {
		bad = append(bad, cp[:i])
	}
	p, err := Compile(res, recoveryConfig().Keys, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i, data := range bad {
		if _, err := p.RestoreNode("a", recoveryConfig(), nil, data); err == nil {
			t.Fatalf("malformed checkpoint %d accepted", i)
		}
	}
}

// TestLogRecordRejectsMalformed: a CRC-valid log record that does not
// decode fails the replay with an error, never a panic — every strict
// prefix of a real record, and counts of 2^62 that would size allocations
// far beyond the record.
func TestLogRecordRejectsMalformed(t *testing.T) {
	res := recoveryProgram(t)
	p, err := Compile(res, recoveryConfig().Keys, nil)
	if err != nil {
		t.Fatal(err)
	}
	replay := func(recs ...[]byte) error {
		st, err := store.Open("disk", t.TempDir(), false)
		if err != nil {
			t.Fatal(err)
		}
		defer st.Close()
		for _, rec := range recs {
			if err := st.Log().Append(rec); err != nil {
				t.Fatal(err)
			}
		}
		cfg := recoveryConfig()
		cfg.Storage = st
		_, err = p.ReplayNode("a", cfg, nil)
		return err
	}

	// A real log: updates and a solve record.
	st, err := store.Open("disk", t.TempDir(), false)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	cfg := recoveryConfig()
	cfg.Storage = st
	n, err := p.NewNode("a", cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	seedRecoveryNode(t, n, "a", "")
	if _, err := n.Solve(SolveOptions{}); err != nil {
		t.Fatal(err)
	}
	recs, err := st.Log().ReadRecords()
	if err != nil {
		t.Fatal(err)
	}
	if err := replay(recs...); err != nil {
		t.Fatalf("the intact log does not replay: %v", err)
	}

	huge := binary.AppendUvarint(nil, 1<<62)
	str := func(s string) []byte { return AppendWireString(nil, s) }
	bad := [][]byte{
		{},
		{99},
		bytes.Join([][]byte{{walRecSolve}, huge}, nil),                             // solve table count
		bytes.Join([][]byte{{walRecSolve, 1}, str("pick"), huge}, nil),             // solve tuple count
		bytes.Join([][]byte{{walRecResync}, str("b"), huge}, nil),                  // resync table count
		bytes.Join([][]byte{{walRecResync}, str("b"), {1}, str("got"), huge}, nil), // resync entry count
		bytes.Join([][]byte{{walRecResync}, str("b"), {0}, huge}, nil),             // resync op count
		bytes.Join([][]byte{{walRecUpdate}, str(""), str("need"), {2}, huge}, nil), // value count
	}
	for _, rec := range recs {
		bad = append(bad, append(append([]byte(nil), rec...), 0))
		for i := 1; i < len(rec); i++ {
			bad = append(bad, rec[:i])
		}
	}
	for i, rec := range bad {
		if err := replay(rec); err == nil {
			t.Fatalf("malformed record %d (%x) replayed", i, rec)
		}
	}
}

// TestResyncPullsLostRows: when a subscriber loses shipped decisions (down
// while the publisher updated), the digest exchange pulls exactly the
// missing rows and the resynced node ends byte-identical to a subscriber
// that never failed.
func TestResyncPullsLostRows(t *testing.T) {
	res := recoveryProgram(t)
	sched := sim.NewScheduler()
	tr := transport.NewSim(sched, time.Millisecond)

	pub, err := NewNode("a", res, recoveryConfig(), tr)
	if err != nil {
		t.Fatal(err)
	}
	sub, err := NewNode("b", res, recoveryConfig(), tr)
	if err != nil {
		t.Fatal(err)
	}
	seedRecoveryNode(t, pub, "a", "b")
	seedRecoveryNode(t, sub, "b", "")
	if _, err := pub.Solve(SolveOptions{}); err != nil {
		t.Fatal(err)
	}
	sched.RunUntilIdle(1000)
	if len(sub.Rows("got")) == 0 {
		t.Fatal("no replicated decisions before failure")
	}
	cp, err := sub.ExportCheckpoint()
	if err != nil {
		t.Fatal(err)
	}

	// The subscriber goes down; the publisher re-decides and the update is
	// lost in flight.
	tr.SetNodeDown("b", true)
	if err := pub.Insert("need", sval("a"), ival(7)); err != nil {
		t.Fatal(err)
	}
	if _, err := pub.Solve(SolveOptions{}); err != nil {
		t.Fatal(err)
	}
	sched.RunUntilIdle(1000)

	// An uninterrupted subscriber for comparison: same program, same seed,
	// receiving the update live.
	live, err := NewNode("c", res, recoveryConfig(), tr)
	if err != nil {
		t.Fatal(err)
	}
	seedRecoveryNode(t, live, "c", "")
	if err := pub.Insert("link", sval("a"), sval("c")); err != nil {
		t.Fatal(err)
	}
	sched.RunUntilIdle(1000)

	// Restart from the checkpoint and resync.
	tr.SetNodeDown("b", false)
	restored, err := RestoreNode("b", res, recoveryConfig(), tr, cp)
	if err != nil {
		t.Fatal(err)
	}
	if err := restored.StartResync([]string{"a"}); err != nil {
		t.Fatal(err)
	}
	sched.RunUntilIdle(1000)
	if restored.ResyncPending() != 0 {
		t.Fatalf("resync still pending against %d peers", restored.ResyncPending())
	}
	st := restored.ResyncStats()
	if st.RowsPulled == 0 || st.BytesPulled == 0 {
		t.Fatalf("no resync work recorded: %+v", st)
	}

	// The resynced subscriber sees exactly what the live one sees (modulo
	// its own address column).
	norm := func(n *Node) string {
		var sb strings.Builder
		for _, row := range n.Rows("got") {
			sb.WriteString(fmt.Sprintf("%s|%s|%d\n", row[1].S, row[2].S, row[3].I))
		}
		return sb.String()
	}
	if got, want := norm(restored), norm(live); got != want {
		t.Fatalf("resynced state diverged from live subscriber:\n--- live\n%s--- resynced\n%s", want, got)
	}

	// A second resync finds nothing to do: digests match.
	before := restored.ResyncStats().RowsPulled
	if err := restored.StartResync([]string{"a"}); err != nil {
		t.Fatal(err)
	}
	sched.RunUntilIdle(1000)
	if after := restored.ResyncStats().RowsPulled; after != before {
		t.Fatalf("idempotent resync pulled %d rows", after-before)
	}
}

// TestResyncRollsBackStaleRows: the reverse direction — a peer holding
// rows that only the failed instance had asserted (sent after the
// checkpoint being restored) rolls them back during the exchange.
func TestResyncRollsBackStaleRows(t *testing.T) {
	res := recoveryProgram(t)
	sched := sim.NewScheduler()
	tr := transport.NewSim(sched, time.Millisecond)

	pub, err := NewNode("a", res, recoveryConfig(), tr)
	if err != nil {
		t.Fatal(err)
	}
	sub, err := NewNode("b", res, recoveryConfig(), tr)
	if err != nil {
		t.Fatal(err)
	}
	seedRecoveryNode(t, pub, "a", "b")
	seedRecoveryNode(t, sub, "b", "")

	// Checkpoint the publisher BEFORE it decides, then let it decide and
	// replicate: the subscriber now holds rows the checkpointed publisher
	// state never asserted.
	cp, err := pub.ExportCheckpoint()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := pub.Solve(SolveOptions{}); err != nil {
		t.Fatal(err)
	}
	sched.RunUntilIdle(1000)
	if len(sub.Rows("got")) == 0 {
		t.Fatal("no replicated decisions")
	}

	// The publisher crashes back to the stale checkpoint and resyncs: the
	// bidirectional exchange must delete the subscriber's phantom rows.
	restored, err := RestoreNode("a", res, recoveryConfig(), tr, cp)
	if err != nil {
		t.Fatal(err)
	}
	if err := restored.StartResync([]string{"b"}); err != nil {
		t.Fatal(err)
	}
	sched.RunUntilIdle(1000)
	if rows := sub.Rows("got"); len(rows) != 0 {
		t.Fatalf("subscriber kept %d rows the restored publisher never asserted", len(rows))
	}
}

// TestResyncLargeTableChunks: a resync whose authoritative row list
// exceeds the per-frame budget must arrive chunked across several frames
// and reconcile completely — the receiver assembles every chunk of the
// exchange (in index order) before treating the list as authoritative.
func TestResyncLargeTableChunks(t *testing.T) {
	prog, err := colog.Parse("r1 sink(@Y,X,S) <- src(@X,Y,S).\n")
	if err != nil {
		t.Fatal(err)
	}
	res, err := analysis.Analyze(prog, nil)
	if err != nil {
		t.Fatal(err)
	}
	sched := sim.NewScheduler()
	tr := transport.NewSim(sched, time.Millisecond)
	pub, err := NewNode("a", res, Config{}, tr)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewNode("b", res, Config{}, tr); err != nil {
		t.Fatal(err)
	}
	const rows = 3000
	filler := strings.Repeat("y", 40)
	for i := 0; i < rows; i++ {
		if err := pub.Insert("src", sval("a"), sval("b"), sval(fmt.Sprintf("%s-%04d", filler, i))); err != nil {
			t.Fatal(err)
		}
	}
	sched.RunUntilIdle(10 * rows)

	// The subscriber crashes cold (no checkpoint): a fresh instance with
	// nothing, pulling the publisher's full >60 KiB assertion state.
	compiled, err := Compile(res, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	fresh, err := compiled.newNode("b", Config{}, tr)
	if err != nil {
		t.Fatal(err)
	}
	if err := fresh.StartResync([]string{"a"}); err != nil {
		t.Fatal(err)
	}
	sched.RunUntilIdle(10 * rows)
	if fresh.ResyncPending() != 0 {
		t.Fatalf("resync still pending against %d peers", fresh.ResyncPending())
	}
	if got := len(fresh.Rows("sink")); got != rows {
		t.Fatalf("resynced %d rows, want %d", got, rows)
	}
	st := fresh.ResyncStats()
	if st.RowsPulled != rows {
		t.Fatalf("RowsPulled = %d, want %d", st.RowsPulled, rows)
	}
	if st.BytesPulled <= maxBatchFrameBytes {
		t.Fatalf("response fit one frame (%d bytes) — the test did not exercise chunking", st.BytesPulled)
	}
	// A second exchange finds everything aligned.
	before := fresh.ResyncStats().RowsPulled
	if err := fresh.StartResync([]string{"a"}); err != nil {
		t.Fatal(err)
	}
	sched.RunUntilIdle(10 * rows)
	if after := fresh.ResyncStats().RowsPulled; after != before {
		t.Fatalf("idempotent resync pulled %d rows", after-before)
	}
}

// TestUDPBatchLargeOutboxSplits: a held outbox far beyond the 64 KiB UDP
// datagram limit must round-trip over the real-socket transport — the
// batcher splits it into frames that each fit a datagram. Regression for
// the unbounded MergeDeltaPayloads frame.
func TestUDPBatchLargeOutboxSplits(t *testing.T) {
	prog, err := colog.Parse("r1 sink(@Y,X,S) <- src(@X,Y,S).\n")
	if err != nil {
		t.Fatal(err)
	}
	res, err := analysis.Analyze(prog, nil)
	if err != nil {
		t.Fatal(err)
	}
	tr := transport.NewUDP()
	defer tr.Close()
	cfg := Config{BatchDeltas: true}
	a, err := NewNode("a", res, cfg, tr)
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewNode("b", res, cfg, tr)
	if err != nil {
		t.Fatal(err)
	}

	const rows = 2000
	filler := strings.Repeat("x", 48)
	a.HoldOutbox(true)
	var outBytes int
	for i := 0; i < rows; i++ {
		s := fmt.Sprintf("%s-%04d", filler, i)
		outBytes += len(s)
		if err := a.Insert("src", sval("a"), sval("b"), sval(s)); err != nil {
			t.Fatal(err)
		}
	}
	a.HoldOutbox(false)
	if outBytes < 80*1024 {
		t.Fatalf("test outbox only %d bytes, want > 64 KiB of payload", outBytes)
	}
	if err := a.FlushOutbox(); err != nil {
		t.Fatalf("flush of oversized outbox failed: %v", err)
	}

	deadline := time.Now().Add(5 * time.Second)
	for {
		if got := len(b.Rows("sink")); got == rows {
			break
		} else if time.Now().After(deadline) {
			t.Fatalf("only %d/%d rows arrived over UDP", got, rows)
		}
		time.Sleep(5 * time.Millisecond)
	}
	if b.LastError != nil {
		t.Fatalf("receiver error: %v", b.LastError)
	}
	st := tr.NodeStats("a")
	if st.MsgsSent < 2 {
		t.Fatalf("oversized batch sent as %d frame(s), want a split", st.MsgsSent)
	}
}

// FuzzDecodeDeltas: arbitrary payloads must decode cleanly or error —
// never panic — and every decoded delta must carry a valid sign and
// re-encode losslessly. Seeded with valid single and batch frames.
func FuzzDecodeDeltas(f *testing.F) {
	p1, _ := encodeDelta("p", []colog.Value{ival(7), sval("x"), colog.FloatVal(1.5), colog.BoolVal(true)}, 1)
	p2, _ := encodeDelta("q", []colog.Value{ival(-3)}, -1)
	f.Add(append([]byte(nil), p1...))
	if frames, err := MergeDeltaPayloads([][]byte{p1, p2}); err == nil {
		f.Add(frames[0])
	}
	f.Add([]byte{wireDeltaVersion})
	f.Add([]byte{wireBatchVersion, 0x02})
	f.Fuzz(func(t *testing.T, payload []byte) {
		wds, err := decodeDeltas(payload)
		if err != nil {
			return
		}
		for _, wd := range wds {
			if wd.Sign != 1 && wd.Sign != -1 {
				t.Fatalf("decoded invalid sign %d", wd.Sign)
			}
			p, err := encodeDelta(wd.Pred, wd.Vals, wd.Sign)
			if err != nil {
				t.Fatalf("re-encoding decoded delta: %v", err)
			}
			back, err := decodeDelta(p)
			if err != nil {
				t.Fatalf("re-decoding: %v", err)
			}
			if back.Pred != wd.Pred || back.Sign != wd.Sign || len(back.Vals) != len(wd.Vals) {
				t.Fatalf("round trip diverged: %+v vs %+v", back, wd)
			}
		}
	})
}
