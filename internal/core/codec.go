package core

// The engine's one binary codec. Delta and batch frames (tuple.go), write-
// ahead log records (wal.go), checkpoints (checkpoint.go) and resync frames
// (recovery.go) are built from the primitives below — uvarint and varint
// integers, uvarint-length-prefixed strings, kind-tagged value lists — and
// every decoder parses through dec. The sections that checkpoints share
// with log records (tuple lists, the optional tuple, mirror tables) have
// one encoder and one decoder each, here. wal.go holds the grammar of every
// format.

import (
	"encoding/binary"
	"fmt"
	"math"

	"repro/internal/colog"
)

// dec is a bounded reader with a sticky error. The first malformed field
// records an error naming it and empties the input, so every later read
// returns a zero value; the caller checks the error once, after its last
// read (end does, and rejects trailing bytes). count caps every length
// prefix at the bytes that remain — every element takes at least one byte
// — so no prefix can size an allocation larger than the input. Reads
// advance an offset rather than reslicing b: a slice store through the
// receiver would cost a write barrier per field while the GC runs.
type dec struct {
	b   []byte // b[off:] is unread
	off int
	err error
}

// fail records a malformed field, unless an earlier one already failed,
// and empties the input. It stays out of line so the reads that call it
// stay small.
//
//go:noinline
func (d *dec) fail(what string) {
	if d.err == nil {
		d.err = fmt.Errorf("malformed %s", what)
	}
	d.off = len(d.b)
}

func (d *dec) uvarint(what string) uint64 {
	v, n := binary.Uvarint(d.b[d.off:])
	if n <= 0 {
		d.fail(what)
		return 0
	}
	d.off += n
	return v
}

func (d *dec) varint(what string) int64 {
	v, n := binary.Varint(d.b[d.off:])
	if n <= 0 {
		d.fail(what)
		return 0
	}
	d.off += n
	return v
}

// count reads a length prefix no larger than the bytes that remain.
func (d *dec) count(what string) int {
	v, n := binary.Uvarint(d.b[d.off:])
	if n <= 0 || v > uint64(len(d.b)-d.off-n) {
		d.fail(what)
		return 0
	}
	d.off += n
	return int(v)
}

func (d *dec) byte(what string) byte {
	if d.off >= len(d.b) {
		d.fail(what)
		return 0
	}
	d.off++
	return d.b[d.off-1]
}

func (d *dec) u32(what string) uint32 {
	if len(d.b)-d.off < 4 {
		d.fail(what)
		return 0
	}
	d.off += 4
	return binary.LittleEndian.Uint32(d.b[d.off-4:])
}

func (d *dec) u64(what string) uint64 {
	if len(d.b)-d.off < 8 {
		d.fail(what)
		return 0
	}
	d.off += 8
	return binary.LittleEndian.Uint64(d.b[d.off-8:])
}

// str reads a string written by AppendWireString.
func (d *dec) str(what string) string {
	n := d.count(what)
	d.off += n
	return string(d.b[d.off-n : d.off])
}

// vals reads a value list written by AppendWireValues.
func (d *dec) vals(what string) []colog.Value {
	n := d.count(what)
	vals := make([]colog.Value, 0, n)
	for i := 0; i < n && d.err == nil; i++ {
		switch colog.ValueKind(d.byte(what)) {
		case colog.KindInt:
			vals = append(vals, colog.IntVal(d.varint(what)))
		case colog.KindFloat:
			vals = append(vals, colog.FloatVal(math.Float64frombits(d.u64(what))))
		case colog.KindString:
			vals = append(vals, colog.StringVal(d.str(what)))
		case colog.KindBool:
			vals = append(vals, colog.BoolVal(d.byte(what) != 0))
		default:
			d.fail(what)
		}
	}
	if d.err != nil {
		return nil
	}
	return vals
}

// end rejects trailing bytes and returns the first error.
func (d *dec) end() error {
	if d.off != len(d.b) {
		d.fail("trailer")
	}
	return d.err
}

// AppendWireString appends a uvarint-length-prefixed string.
func AppendWireString(buf []byte, s string) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(s)))
	return append(buf, s...)
}

// ReadWireString parses a string written by AppendWireString; ok is false
// on a malformed prefix or truncated body.
func ReadWireString(rest []byte) (s string, rem []byte, ok bool) {
	d := dec{b: rest}
	s = d.str("string")
	return s, rest[d.off:], d.err == nil
}

// AppendWireValues appends a value list in the engine's per-value
// kind-tagged wire layout: a uvarint count, then per value a kind byte and
// a varint (int), 8 little-endian bytes (float), a string, or one byte
// (bool). Exported for the serving churn-stream codec, which frames churn
// events with the same primitives as delta, checkpoint, and resync frames.
func AppendWireValues(buf []byte, vals []colog.Value) ([]byte, error) {
	buf = binary.AppendUvarint(buf, uint64(len(vals)))
	for _, v := range vals {
		buf = append(buf, byte(v.Kind))
		switch v.Kind {
		case colog.KindInt:
			buf = binary.AppendVarint(buf, v.I)
		case colog.KindFloat:
			buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(v.F))
		case colog.KindString:
			buf = AppendWireString(buf, v.S)
		case colog.KindBool:
			b := byte(0)
			if v.B {
				b = 1
			}
			buf = append(buf, b)
		default:
			return nil, fmt.Errorf("unknown value kind %d", v.Kind)
		}
	}
	return buf, nil
}

// ReadWireValues parses a value list written by AppendWireValues and
// returns the remaining bytes.
func ReadWireValues(rest []byte) ([]colog.Value, []byte, error) {
	d := dec{b: rest}
	vals := d.vals("value list")
	return vals, rest[d.off:], d.err
}

// appendTuples appends per-predicate tuple lists: a solve record's body
// and a checkpoint's materialization section.
func appendTuples(buf []byte, mats []matTable) ([]byte, error) {
	buf = binary.AppendUvarint(buf, uint64(len(mats)))
	var err error
	for _, mt := range mats {
		buf = AppendWireString(buf, mt.pred)
		buf = binary.AppendUvarint(buf, uint64(len(mt.tuples)))
		for _, t := range mt.tuples {
			if buf, err = AppendWireValues(buf, t.Vals); err != nil {
				return nil, fmt.Errorf("%s: %w", mt.pred, err)
			}
		}
	}
	return buf, nil
}

func (d *dec) tuples() []matTable {
	mats := make([]matTable, d.count("table count"))
	for i := range mats {
		mt := &mats[i]
		mt.pred = d.str("predicate")
		mt.tuples = make([]Tuple, d.count("tuple count"))
		for j := range mt.tuples {
			mt.tuples[j] = Tuple{mt.pred, d.vals("tuple values")}
		}
	}
	return mats
}

// appendOptTuple appends a flag byte and, when t is set, its predicate and
// values: a solve record's goal and an aggregate group's emitted head.
func appendOptTuple(buf []byte, t *Tuple) ([]byte, error) {
	if t == nil {
		return append(buf, 0), nil
	}
	return AppendWireValues(AppendWireString(append(buf, 1), t.Pred), t.Vals)
}

func (d *dec) optTuple() *Tuple {
	if d.byte("tuple flag") == 0 {
		return nil
	}
	pred := d.str("tuple predicate")
	return &Tuple{pred, d.vals("tuple values")}
}

// appendMirrors appends mirror tables — per table its name, live count,
// then each live entry's multiplicity and values in mirror order: a resync
// record's rebuilt mirrors and each peer's mirrors in a checkpoint.
func appendMirrors(buf []byte, names []string, sets []*mirrorSet) ([]byte, error) {
	buf = binary.AppendUvarint(buf, uint64(len(names)))
	var err error
	for i, ms := range sets {
		buf = AppendWireString(buf, names[i])
		buf = binary.AppendUvarint(buf, uint64(ms.live))
		for _, e := range ms.entries {
			if e.count <= 0 {
				continue
			}
			buf = binary.AppendUvarint(buf, uint64(e.count))
			if buf, err = AppendWireValues(buf, e.vals); err != nil {
				return nil, fmt.Errorf("mirror %s: %w", names[i], err)
			}
		}
	}
	return buf, nil
}

func (d *dec) mirrors() ([]string, []*mirrorSet) {
	names := make([]string, d.count("mirror table count"))
	sets := make([]*mirrorSet, len(names))
	for i := range names {
		names[i] = d.str("mirror table")
		ms := &mirrorSet{index: map[string]int{}}
		for j, n := 0, d.count("mirror entry count"); j < n && d.err == nil; j++ {
			count := d.uvarint("mirror entry multiplicity")
			if count == 0 || count > math.MaxInt {
				d.fail("mirror entry multiplicity")
			}
			vals := d.vals("mirror entry values")
			key := valsKey(vals)
			ms.entries = append(ms.entries, mirrorEntry{key: key, hash: fnvHash(key), vals: vals, count: int(count)})
			ms.index[key] = len(ms.entries) - 1
			ms.live++
		}
		sets[i] = ms
	}
	return names, sets
}
