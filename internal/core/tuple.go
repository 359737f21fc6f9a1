// Package core implements the Cologne engine: per-node Colog program
// execution combining a bottom-up incremental Datalog evaluator (the
// RapidNet role — pipelined semi-naive evaluation with counted incremental
// view maintenance) with top-down goal-oriented constraint solving (the
// Gecode role, provided by internal/solver). It is the paper's primary
// contribution: Colog solver rules are grounded into constraint-solver
// primitives at each node, and distributed rules exchange tuples through a
// transport.
package core

import (
	"encoding/binary"
	"fmt"
	"strings"
	"sync"

	"repro/internal/colog"
)

// wireBufPool recycles encode buffers for delta frames and batch merges.
// Every epoch used to allocate a fresh buffer per outgoing message; the
// senders (Node.flush, Node.flushBatched, the staged epoch barrier) return
// buffers here once the transport has consumed them. The Transport contract
// makes this safe: Send must not retain the payload after it returns (the
// sim transport copies at delivery scheduling, UDP writes synchronously,
// loopback delivers synchronously).
var wireBufPool = sync.Pool{New: func() any { return new([]byte) }}

// maxPooledWireBuf bounds the capacity kept in the pool; frames are capped
// near maxBatchFrameBytes, so anything larger is an outlier not worth
// retaining.
const maxPooledWireBuf = 128 * 1024

// getWireBuf returns an empty wire buffer with at least the given capacity.
func getWireBuf(capacity int) []byte {
	b := (*wireBufPool.Get().(*[]byte))[:0]
	if cap(b) < capacity {
		b = make([]byte, 0, capacity)
	}
	return b
}

// putWireBuf returns a buffer obtained from getWireBuf (or any buffer the
// caller owns exclusively) to the pool. The caller must not touch b again.
func putWireBuf(b []byte) {
	if cap(b) == 0 || cap(b) > maxPooledWireBuf {
		return
	}
	wireBufPool.Put(&b)
}

// Tuple is a ground fact: a predicate name plus constant values.
type Tuple struct {
	Pred string
	Vals []colog.Value
}

// NewTuple builds a tuple.
func NewTuple(pred string, vals ...colog.Value) Tuple {
	return Tuple{Pred: pred, Vals: vals}
}

// Key returns a canonical map key for the tuple's full value list.
func (t Tuple) Key() string { return valsKey(t.Vals) }

func valsKey(vals []colog.Value) string {
	return string(appendValsKey(nil, vals))
}

// appendValsKey appends the canonical key of a full value list to dst.
func appendValsKey(dst []byte, vals []colog.Value) []byte {
	for i, v := range vals {
		if i > 0 {
			dst = append(dst, '|')
		}
		dst = v.AppendKey(dst)
	}
	return dst
}

func keyOf(vals []colog.Value, cols []int) string {
	if cols == nil {
		return valsKey(vals)
	}
	var dst []byte
	for i, c := range cols {
		if i > 0 {
			dst = append(dst, '|')
		}
		dst = vals[c].AppendKey(dst)
	}
	return string(dst)
}

// valsEqual reports whether two value lists are identical under Value.Equal,
// without building key strings.
func valsEqual(a, b []colog.Value) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].Kind != b[i].Kind || !a[i].Equal(b[i]) {
			return false
		}
	}
	return true
}

// String renders the tuple as Colog source.
func (t Tuple) String() string {
	parts := make([]string, len(t.Vals))
	for i, v := range t.Vals {
		parts[i] = v.String()
	}
	return fmt.Sprintf("%s(%s)", t.Pred, strings.Join(parts, ","))
}

// Clone deep-copies the tuple.
func (t Tuple) Clone() Tuple {
	return Tuple{Pred: t.Pred, Vals: append([]colog.Value(nil), t.Vals...)}
}

// wireDelta is the network representation of a tuple delta.
type wireDelta struct {
	Pred string
	Vals []colog.Value
	Sign int
}

// Deltas travel in a compact self-describing binary format instead of gob:
// gob ships full type descriptors and compiles a decode engine per
// Encoder/Decoder pair, which for the one-shot datagrams Cologne exchanges
// (UDP semantics, one delta per message) dominated message handling. A
// version-1 frame is one delta: its predicate, sign and values (the
// grammar is in wal.go). Malformed payloads return an error, never panic
// (TestMalformedMessageIgnored).
//
// A second frame version batches several deltas to one destination into a
// single message: a delta count, then each delta's body (everything after
// the version byte of a version-1 frame) back to back. Receivers apply the
// deltas in frame order, so a batch is observationally identical to its
// unbatched sequence — only the message count changes. Node.FlushOutbox
// and the cluster runtime's epoch barrier build such frames per (epoch,
// destination) at scale.
const wireDeltaVersion = 1
const wireBatchVersion = 2

// Recovery frames (see recovery.go): a resync digest carries per-table row
// counts, order-sensitive hashes, and row-key hashes; a resync rows frame
// carries the publisher's authoritative row list for the tables that
// mismatched. Both chunk at the same frame budget as delta batches.
const wireResyncDigestVersion = 3
const wireResyncRowsVersion = 4

// maxBatchFrameBytes caps the encoded size of one merged frame. The UDP
// transport prefixes each datagram with a 1-byte length and the sender
// address (≤255 bytes) and the maximum UDP payload is 65507 bytes, so any
// frame under this budget fits one datagram with headroom; the receive
// buffer is 64 KiB. MergeDeltaPayloads splits batches that would exceed it
// — before the split, a large (epoch, destination) outbox produced one
// oversized frame that the socket rejected (or a reader truncated into a
// "malformed trailer" decode error) and the whole batch was lost.
const maxBatchFrameBytes = 60 * 1024

// encodeDelta serializes a tuple delta for the transport. The returned
// buffer comes from the wire pool; the sender recycles it with putWireBuf
// once the transport has consumed it.
func encodeDelta(pred string, vals []colog.Value, sign int) ([]byte, error) {
	buf := getWireBuf(16 + len(pred) + 12*len(vals))
	buf = append(buf, wireDeltaVersion)
	buf = AppendWireString(buf, pred)
	buf = binary.AppendVarint(buf, int64(sign))
	var err error
	if buf, err = AppendWireValues(buf, vals); err != nil {
		return nil, fmt.Errorf("core: encoding %s delta: %w", pred, err)
	}
	return buf, nil
}

// MergeDeltaPayloads combines already-encoded single-delta payloads (as
// produced by encodeDelta, all bound for one destination) into batch
// frames, splitting whenever a frame would exceed maxBatchFrameBytes so
// every frame fits a single UDP datagram. Delta order is preserved across
// the returned frames. A single payload is returned unchanged, so batching
// never makes a lone delta bigger.
func MergeDeltaPayloads(payloads [][]byte) ([][]byte, error) {
	frames, _, err := mergeDeltaFrames(payloads)
	return frames, err
}

// mergeDeltaFrames is MergeDeltaPayloads with buffer-ownership bookkeeping:
// counts[i] is the number of source payloads consumed into frames[i]. A
// chunk of one passes the source through as the frame itself (counts[i] ==
// 1, frames[i] aliases the source); larger chunks copy the sources into a
// pool-backed batch frame. Callers that recycle buffers use counts to
// return each source exactly once — an aliased pass-through must be
// recycled as the frame, never again as a source.
func mergeDeltaFrames(payloads [][]byte) ([][]byte, []int, error) {
	if len(payloads) == 1 {
		return payloads[:1], []int{1}, nil
	}
	for _, p := range payloads {
		if len(p) == 0 || p[0] != wireDeltaVersion {
			return nil, nil, fmt.Errorf("core: merging delta payloads: not a version-%d frame", wireDeltaVersion)
		}
	}
	var frames [][]byte
	var counts []int
	for start := 0; start < len(payloads); {
		size := 1 + binary.MaxVarintLen64
		end := start
		for end < len(payloads) && (end == start || size+len(payloads[end])-1 <= maxBatchFrameBytes) {
			size += len(payloads[end]) - 1
			end++
		}
		if end-start == 1 {
			// A chunk of one travels as the original version-1 frame; an
			// oversized single delta cannot be split further.
			frames = append(frames, payloads[start])
			counts = append(counts, 1)
			start = end
			continue
		}
		buf := getWireBuf(size)
		buf = append(buf, wireBatchVersion)
		buf = binary.AppendUvarint(buf, uint64(end-start))
		for _, p := range payloads[start:end] {
			buf = append(buf, p[1:]...)
		}
		frames = append(frames, buf)
		counts = append(counts, end-start)
		start = end
	}
	return frames, counts, nil
}

// decodeDeltas deserializes a transport payload into its tuple deltas:
// exactly one for a version-1 frame, several in order for a batch frame.
func decodeDeltas(payload []byte) ([]wireDelta, error) {
	if len(payload) == 0 || payload[0] != wireBatchVersion {
		wd, err := decodeDelta(payload)
		if err != nil {
			return nil, err
		}
		return []wireDelta{wd}, nil
	}
	d := dec{b: payload[1:]}
	out := make([]wireDelta, 0, d.count("count"))
	for i := cap(out); i > 0 && d.err == nil; i-- {
		out = append(out, d.delta())
	}
	if err := d.end(); err != nil {
		return nil, fmt.Errorf("core: decoding delta batch: %w", err)
	}
	return out, nil
}

// decodeDelta deserializes a version-1 (single-delta) frame without the
// slice detour of decodeDeltas — unbatched frames dominate the receive
// path, which hands every other frame to decodeDeltas.
func decodeDelta(payload []byte) (wireDelta, error) {
	if len(payload) == 0 || payload[0] != wireDeltaVersion {
		return wireDelta{}, fmt.Errorf("core: decoding delta: malformed header")
	}
	d := dec{b: payload[1:]}
	wd := d.delta()
	if err := d.end(); err != nil {
		return wireDelta{}, fmt.Errorf("core: decoding delta: %w", err)
	}
	return wd, nil
}

// delta reads one delta body: a version-1 frame minus its version byte.
func (d *dec) delta() wireDelta {
	pred := d.str("predicate")
	sign := d.varint("sign")
	if sign != 1 && sign != -1 {
		// Anything but an insert or a delete is a corrupt frame; letting it
		// through would flow an unchecked sign into the delta pipeline
		// (FuzzDecodeDeltas pins this).
		d.fail("sign")
	}
	return wireDelta{Pred: pred, Sign: int(sign), Vals: d.vals("values")}
}
