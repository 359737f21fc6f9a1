package core_test

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math/rand"
	"os"
	"sort"
	"strings"
	"testing"
	"time"

	"repro/internal/acloud"
	"repro/internal/analysis"
	"repro/internal/colog"
	"repro/internal/core"
	"repro/internal/programs"
	"repro/internal/serve"
	"repro/internal/sim"
	"repro/internal/store"
	"repro/internal/transport"
)

// codecGolden pins the bytes of every record and frame kind the engine
// encodes: for each kind, the number of items the codec scenarios produce
// and the sha256 of each item, sorted. The resync exchange id is seeded
// from the wall clock, so digest and rows frames are hashed with it zeroed.
// The hashes were recorded before the decoders moved onto one reader;
// a deliberate format change re-records them and says so.
const codecGolden = "testdata/codec.golden"

// codecKinds lists every recorded kind: the five log record types and the
// four frame versions, plus ExportCheckpoint output.
var codecKinds = []string{
	"wal.update", "wal.solve", "wal.invokeDone", "wal.resync", "wal.checkpoint",
	"frame.delta", "frame.batch", "frame.digest", "frame.rows",
	"checkpoint",
}

// codecItem is one encoded record or frame. Checkpoints carry the restore
// that rebuilds a node from them, for the round trip.
type codecItem struct {
	data    []byte
	restore func([]byte) (*core.Node, error)
}

type codecRun map[string][]codecItem

func (r codecRun) add(kind string, data []byte) {
	r[kind] = append(r[kind], codecItem{data: append([]byte(nil), data...)})
}

// addLog records every record of a node's write-ahead log by type.
func (r codecRun) addLog(t testing.TB, st store.Store) {
	t.Helper()
	recs, err := st.Log().ReadRecords()
	if err != nil {
		t.Fatal(err)
	}
	for _, rec := range recs {
		kind := fmt.Sprintf("wal.%d", rec[0])
		switch rec[0] {
		case 1:
			kind = "wal.update"
		case 2:
			kind = "wal.solve"
		case 3:
			kind = "wal.invokeDone"
		case 4:
			kind = "wal.resync"
		case 5:
			kind = "wal.checkpoint"
		}
		r.add(kind, rec)
	}
}

// addCheckpoint records a node's checkpoint with the restore for it.
func (r codecRun) addCheckpoint(t testing.TB, n *core.Node, res *analysis.Result, cfg core.Config) {
	t.Helper()
	cp, err := n.ExportCheckpoint()
	if err != nil {
		t.Fatal(err)
	}
	cfg.Storage = nil
	p, err := core.Compile(res, cfg.Keys, cfg.Events)
	if err != nil {
		t.Fatal(err)
	}
	r["checkpoint"] = append(r["checkpoint"], codecItem{data: cp, restore: func(b []byte) (*core.Node, error) {
		return p.RestoreNode(n.Addr, cfg, nil, b)
	}})
}

// captureTransport records a copy of every frame sent through it.
type captureTransport struct {
	transport.Transport
	run codecRun
}

func (c captureTransport) Send(from, to string, payload []byte) error {
	kind := fmt.Sprintf("frame.%d", payload[0])
	switch payload[0] {
	case 1:
		kind = "frame.delta"
	case 2:
		kind = "frame.batch"
	case 3:
		kind = "frame.digest"
	case 4:
		kind = "frame.rows"
	}
	c.run.add(kind, payload)
	return c.Transport.Send(from, to, payload)
}

func diskStore(t testing.TB) store.Store {
	t.Helper()
	st, err := store.Open("disk", t.TempDir(), false)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { st.Close() })
	return st
}

// codecServing runs the ACloud serving scenario on a disk store: churn
// updates, tick solves, event-fired solves in invoke brackets, then a
// compaction to one checkpoint record.
func codecServing(t testing.TB, run codecRun) {
	entry := programs.ACloud(false, 0)
	res := entry.Analyze()
	cfg := entry.Config
	cfg.SolverMaxNodes = 4000
	cfg.SolverPropagate = true
	cfg.SolverIncremental = true
	cfg.SolverWarmStart = true
	cfg.Keys = map[string][]int{"vmRaw": {0}, "origin": {0}, "vm": {0}}
	st := diskStore(t)
	cfg.Storage = st
	node, err := core.NewNode("dc0", res, cfg, nil)
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
	srv := serve.NewServer(node, serve.Config{Keys: map[string][]int{"vmRaw": {0}}})
	sc, err := acloud.NewServing(acloud.DefaultServingParams(), serve.Config{})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(11))
	for tick := 0; tick < 20; tick++ {
		for _, ev := range sc.Gen(rng, 1+rng.Intn(8)) {
			if err := srv.Offer(ev); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := srv.TickOnce(); err != nil {
			t.Fatalf("tick %d: %v", tick, err)
		}
		if tick%5 == 4 {
			// An event-fired solve: a solve record and its invoke-done marker.
			if err := node.Insert(core.InvokeSolverPred); err != nil || node.LastError != nil {
				t.Fatalf("invoke at tick %d: %v, %v", tick, err, node.LastError)
			}
		}
	}
	run.addLog(t, st)
	run.addCheckpoint(t, node, res, cfg)
	if _, err := node.CheckpointAndCompact(); err != nil {
		t.Fatal(err)
	}
	run.addLog(t, st)
}

// codecResync runs a TestResyncPullsLostRows-style restart on disk stores:
// delta frames, a lost update, a checkpoint restore, and the digest and
// rows frames and resync records of the bidirectional exchange.
func codecResync(t testing.TB, run codecRun) {
	prog, err := colog.Parse(core.RecoverySrc)
	if err != nil {
		t.Fatal(err)
	}
	res, err := analysis.Analyze(prog, nil)
	if err != nil {
		t.Fatal(err)
	}
	sched := sim.NewScheduler()
	simTr := transport.NewSim(sched, time.Millisecond)
	tr := captureTransport{simTr, run}
	cfgAt := func(st store.Store) core.Config {
		cfg := core.RecoveryConfig()
		cfg.Storage = st
		return cfg
	}
	stA, stB, stR := diskStore(t), diskStore(t), diskStore(t)
	pub, err := core.NewNode("a", res, cfgAt(stA), tr)
	if err != nil {
		t.Fatal(err)
	}
	sub, err := core.NewNode("b", res, cfgAt(stB), tr)
	if err != nil {
		t.Fatal(err)
	}
	core.SeedRecoveryNode(t, pub, "a", "b")
	core.SeedRecoveryNode(t, sub, "b", "")
	if _, err := pub.Solve(core.SolveOptions{}); err != nil {
		t.Fatal(err)
	}
	sched.RunUntilIdle(1000)
	cp, err := sub.ExportCheckpoint()
	if err != nil {
		t.Fatal(err)
	}
	simTr.SetNodeDown("b", true)
	if err := pub.Insert("need", colog.StringVal("a"), colog.IntVal(7)); err != nil {
		t.Fatal(err)
	}
	if _, err := pub.Solve(core.SolveOptions{}); err != nil {
		t.Fatal(err)
	}
	sched.RunUntilIdle(1000)
	simTr.SetNodeDown("b", false)
	restored, err := core.RestoreNode("b", res, cfgAt(stR), tr, cp)
	if err != nil {
		t.Fatal(err)
	}
	if err := restored.StartResync([]string{"a"}); err != nil {
		t.Fatal(err)
	}
	sched.RunUntilIdle(1000)
	if restored.ResyncPending() != 0 || restored.ResyncStats().RowsPulled == 0 {
		t.Fatalf("resync did not pull: pending %d, %+v", restored.ResyncPending(), restored.ResyncStats())
	}
	for _, st := range []store.Store{stA, stB, stR} {
		run.addLog(t, st)
	}
	run.addCheckpoint(t, pub, res, cfgAt(nil))
	run.addCheckpoint(t, restored, res, cfgAt(nil))
}

// codecBatch runs one held outbox of BatchDeltas inserts and deletes
// carrying every value kind, flushed as a batch frame.
func codecBatch(t testing.TB, run codecRun) {
	prog, err := colog.Parse("r1 sink(@Y,X,I,F,S,B) <- src(@X,Y,I,F,S,B).\n")
	if err != nil {
		t.Fatal(err)
	}
	res, err := analysis.Analyze(prog, nil)
	if err != nil {
		t.Fatal(err)
	}
	sched := sim.NewScheduler()
	tr := captureTransport{transport.NewSim(sched, time.Millisecond), run}
	cfg := core.Config{BatchDeltas: true}
	a, err := core.NewNode("a", res, cfg, tr)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := core.NewNode("b", res, cfg, tr); err != nil {
		t.Fatal(err)
	}
	row := func(i int) []colog.Value {
		return []colog.Value{colog.StringVal("a"), colog.StringVal("b"), colog.IntVal(int64(i*i - 5)),
			colog.FloatVal(float64(i) / 4), colog.StringVal(strings.Repeat("s", i)), colog.BoolVal(i%2 == 0)}
	}
	a.HoldOutbox(true)
	for i := 0; i < 6; i++ {
		if err := a.Insert("src", row(i)...); err != nil {
			t.Fatal(err)
		}
	}
	if err := a.Delete("src", row(2)...); err != nil {
		t.Fatal(err)
	}
	a.HoldOutbox(false)
	if err := a.FlushOutbox(); err != nil {
		t.Fatal(err)
	}
	sched.RunUntilIdle(1000)
	run.addCheckpoint(t, a, res, cfg)
}

// codecRecording runs every codec scenario.
func codecRecording(t testing.TB) codecRun {
	t.Helper()
	run := codecRun{}
	codecServing(t, run)
	codecResync(t, run)
	codecBatch(t, run)
	return run
}

// codecGoldenText renders a run as the golden: per kind a count line,
// then the sorted item hashes.
func codecGoldenText(run codecRun) string {
	var b strings.Builder
	for _, kind := range codecKinds {
		items := run[kind]
		fmt.Fprintf(&b, "%s %d\n", kind, len(items))
		hashes := make([]string, 0, len(items))
		for _, it := range items {
			data := append([]byte(nil), it.data...)
			switch kind {
			case "frame.digest":
				copy(data[2:10], make([]byte, 8))
			case "frame.rows":
				copy(data[1:9], make([]byte, 8))
			}
			sum := sha256.Sum256(data)
			hashes = append(hashes, hex.EncodeToString(sum[:]))
		}
		sort.Strings(hashes)
		for _, h := range hashes {
			b.WriteString("  " + h + "\n")
		}
	}
	return b.String()
}

// recode decodes one recorded item with the engine's decoder for its kind
// and re-encodes the result.
func recode(kind string, it codecItem) ([]byte, error) {
	switch {
	case kind == "checkpoint":
		n, err := it.restore(it.data)
		if err != nil {
			return nil, err
		}
		return n.ExportCheckpoint()
	case kind == "wal.checkpoint":
		return nil, nil // the checkpoint kind covers the payload
	case strings.HasPrefix(kind, "wal."):
		return core.RecodeLogRecord(it.data)
	case kind == "frame.delta" || kind == "frame.batch":
		return core.RecodeDeltaFrame(it.data)
	default:
		return core.RecodeResyncFrame(it.data)
	}
}

// TestCodecMatchesRecorded pins every record and frame kind to the bytes
// recorded in codecGolden, and requires each recorded item to decode and
// re-encode to exactly its bytes.
func TestCodecMatchesRecorded(t *testing.T) {
	want, err := os.ReadFile(codecGolden)
	if err != nil {
		t.Fatal(err)
	}
	run := codecRecording(t)
	for _, kind := range codecKinds {
		if len(run[kind]) == 0 {
			t.Errorf("the codec scenarios produced no %s", kind)
		}
	}
	if got := codecGoldenText(run); got != string(want) {
		wantLines, gotLines := strings.Split(string(want), "\n"), strings.Split(got, "\n")
		for i := 0; i < len(wantLines) || i < len(gotLines); i++ {
			var w, g string
			if i < len(wantLines) {
				w = wantLines[i]
			}
			if i < len(gotLines) {
				g = gotLines[i]
			}
			if w != g {
				t.Errorf("line %d:\n got: %s\nwant: %s", i+1, g, w)
			}
		}
	}
	for _, kind := range codecKinds {
		for i, it := range run[kind] {
			re, err := recode(kind, it)
			if err != nil {
				t.Fatalf("%s %d: decoding a recorded item: %v", kind, i, err)
			}
			if re != nil && !bytes.Equal(re, it.data) {
				t.Fatalf("%s %d: re-encoding changed the bytes:\n got %x\nwant %x", kind, i, re, it.data)
			}
		}
	}
}

// FuzzDecodeLogRecord: arbitrary log record payloads — checkpoints
// included, which a compaction logs as a record — must decode or error,
// never panic, and whatever decodes must re-encode to bytes that decode to
// the same value. A checkpoint is tried against every program of the codec
// scenarios. Seeded from the scenarios' logs and checkpoints.
func FuzzDecodeLogRecord(f *testing.F) {
	run := codecRecording(f)
	for _, kind := range codecKinds {
		for _, it := range run[kind] {
			if strings.HasPrefix(kind, "wal.") {
				f.Add(it.data)
			} else if kind == "checkpoint" {
				f.Add(append([]byte{5}, it.data...))
			}
		}
	}
	f.Fuzz(func(t *testing.T, rec []byte) {
		if len(rec) > 0 && rec[0] == 5 {
			for _, it := range run["checkpoint"] {
				n, err := it.restore(rec[1:])
				if err != nil {
					continue
				}
				cp, err := n.ExportCheckpoint()
				if err != nil {
					t.Fatalf("exporting an imported checkpoint: %v", err)
				}
				n, err = it.restore(cp)
				if err != nil {
					t.Fatalf("re-importing an exported checkpoint: %v", err)
				}
				if again, err := n.ExportCheckpoint(); err != nil || !bytes.Equal(again, cp) {
					t.Fatalf("checkpoint round trip diverged: %v\n%x\n%x", err, again, cp)
				}
			}
			return
		}
		re, err := core.RecodeLogRecord(rec)
		if err != nil {
			return
		}
		if again, err := core.RecodeLogRecord(re); err != nil || !bytes.Equal(again, re) {
			t.Fatalf("record round trip diverged: %v\n%x\n%x", err, again, re)
		}
	})
}

// FuzzDecodeResyncFrame: arbitrary resync digest and rows frames — they
// arrive from UDP peers — must decode or error, never panic, and whatever
// decodes must re-encode to bytes that decode to the same value. Seeded
// from the codec scenarios' frames.
func FuzzDecodeResyncFrame(f *testing.F) {
	run := codecRecording(f)
	for _, kind := range []string{"frame.digest", "frame.rows"} {
		for _, it := range run[kind] {
			f.Add(it.data)
		}
	}
	f.Fuzz(func(t *testing.T, frame []byte) {
		re, err := core.RecodeResyncFrame(frame)
		if err != nil {
			return
		}
		if again, err := core.RecodeResyncFrame(re); err != nil || !bytes.Equal(again, re) {
			t.Fatalf("frame round trip diverged: %v\n%x\n%x", err, again, re)
		}
	})
}
