package core

import (
	"encoding/binary"
	"fmt"
	"sort"
	"strings"
	"testing"
)

// CompileCount reports how many times Compile has run in this process.
func CompileCount() int64 { return compiles.Load() }

// GroundedModelText renders the solver model cached by incremental
// grounding (Config.SolverIncremental): its constraints in posting order,
// one per line, then the objective with its sense. It is empty when no
// model is cached (before the first solve, or when the last one found no
// variables).
func GroundedModelText(n *Node) string {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.ground == nil {
		return ""
	}
	var b strings.Builder
	m := n.ground.model
	for _, c := range m.Constraints() {
		b.WriteString(c.String())
		b.WriteByte('\n')
	}
	if obj, sense := m.Objective(); obj != nil {
		b.WriteString(sense.String())
		b.WriteByte(' ')
		b.WriteString(obj.String())
		b.WriteByte('\n')
	}
	return b.String()
}

// PlanText renders every plan Compile built for the program, one line per
// plan: the delta plans in compile order, then the ground plan of every
// solver rule in program order. A step renders as its kind with the bound
// variable, the condition, or, for a join, the predicate and its bound
// columns.
func PlanText(p *Program) string {
	var b strings.Builder
	all := make([]*plan, 0, p.nplans)
	for _, ps := range p.plans {
		all = append(all, ps...)
	}
	sort.Slice(all, func(i, j int) bool { return all[i].id < all[j].id })
	for _, pl := range all {
		fmt.Fprintf(&b, "delta %s @%s:%s\n", ruleName(pl.rule), pl.trigger.Pred, stepsText(pl.steps))
	}
	for _, gp := range p.ground {
		if gp != nil {
			fmt.Fprintf(&b, "ground %s:%s\n", gp.label, stepsText(gp.steps))
		}
	}
	return b.String()
}

func stepsText(steps []planStep) string {
	var b strings.Builder
	for _, st := range steps {
		switch st.kind {
		case stepJoin:
			cols := make([]string, len(st.boundCols))
			for i, c := range st.boundCols {
				cols[i] = fmt.Sprint(c)
			}
			fmt.Fprintf(&b, " %s[%s]", st.atom.Pred, strings.Join(cols, ","))
		case stepFilter:
			fmt.Fprintf(&b, " filter(%s)", st.cond)
		case stepBind:
			fmt.Fprintf(&b, " bind(%s)", st.bindVar)
		case stepAssign:
			fmt.Fprintf(&b, " assign(%s)", st.bindVar)
		case stepReify:
			fmt.Fprintf(&b, " reify(%s)", st.bindVar)
		}
	}
	return b.String()
}

// RecoverySrc, RecoveryConfig and SeedRecoveryNode expose the recovery
// suite's program to the codec tests.
const RecoverySrc = recoverySrc

func RecoveryConfig() Config { return recoveryConfig() }

func SeedRecoveryNode(t testing.TB, n *Node, addr, next string) { seedRecoveryNode(t, n, addr, next) }

// RecodeLogRecord decodes a log record payload of any type but checkpoint
// with the replay decoders and re-encodes it with the logging encoders.
func RecodeLogRecord(rec []byte) ([]byte, error) {
	if len(rec) == 0 {
		return nil, fmt.Errorf("empty record")
	}
	switch rec[0] {
	case walRecUpdate:
		origin, pred, sign, vals, err := decodeWALUpdate(rec)
		if err != nil {
			return nil, err
		}
		return encodeWALUpdate(nil, origin, pred, sign, vals)
	case walRecSolve:
		mats, goal, err := decodeWALSolve(rec)
		if err != nil {
			return nil, err
		}
		return encodeWALSolve(mats, goal)
	case walRecInvokeDone:
		if err := decodeWALInvokeDone(rec); err != nil {
			return nil, err
		}
		return rec, nil
	case walRecResync:
		// replayResync's decode, without the apply.
		d := dec{b: rec[1:]}
		peer := d.str("resync peer")
		names, sets := d.mirrors()
		plan := d.resyncPlan()
		if err := d.end(); err != nil {
			return nil, err
		}
		return encodeWALResync(peer, names, sets, plan)
	}
	return nil, fmt.Errorf("record type %d", rec[0])
}

// RecodeDeltaFrame decodes a delta or batch frame and re-encodes its
// deltas, merged into one frame.
func RecodeDeltaFrame(frame []byte) ([]byte, error) {
	wds, err := decodeDeltas(frame)
	if err != nil {
		return nil, err
	}
	payloads := make([][]byte, len(wds))
	for i, wd := range wds {
		if payloads[i], err = encodeDelta(wd.Pred, wd.Vals, wd.Sign); err != nil {
			return nil, err
		}
	}
	frames, err := MergeDeltaPayloads(payloads)
	if err != nil || len(frames) != 1 {
		return nil, fmt.Errorf("%d deltas re-encode to %d frames: %v", len(wds), len(frames), err)
	}
	return frames[0], nil
}

// RecodeResyncFrame decodes a resync digest or rows frame and re-encodes
// it as the same chunk of the same exchange.
func RecodeResyncFrame(frame []byte) ([]byte, error) {
	if len(frame) == 0 {
		return nil, fmt.Errorf("empty frame")
	}
	var w *frameWriter
	var idx, total uint32
	add := func(name string, chunk []byte) {
		w.cur = append(AppendWireString(w.cur, name), chunk...)
		w.tables++
	}
	switch frame[0] {
	case wireResyncDigestVersion:
		mode, xid, i, n, tables, err := decodeDigestFrame(frame)
		if err != nil {
			return nil, err
		}
		w, idx, total = newFrameWriter([]byte{wireResyncDigestVersion, mode}, binary.LittleEndian.AppendUint64(nil, xid)), i, n
		w.open()
		for _, t := range tables {
			add(t.name, appendDigestTable(nil, t))
		}
	case wireResyncRowsVersion:
		xid, i, n, tables, err := decodeRowsFrame(frame)
		if err != nil {
			return nil, err
		}
		w, idx, total = newFrameWriter([]byte{wireResyncRowsVersion}, binary.LittleEndian.AppendUint64(nil, xid)), i, n
		w.open()
		for _, t := range tables {
			chunk := binary.AppendUvarint(nil, uint64(len(t.entries)))
			for _, e := range t.entries {
				chunk = appendRowsEntry(chunk, e)
			}
			add(t.name, chunk)
		}
	default:
		return nil, fmt.Errorf("frame version %d", frame[0])
	}
	w.closeFrame()
	f := w.frames[0]
	binary.LittleEndian.PutUint32(f[w.idxFix:], idx)
	binary.LittleEndian.PutUint32(f[w.idxFix+4:], total)
	return f, nil
}
