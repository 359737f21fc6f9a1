package core

// Checkpointed recovery and anti-entropy resync.
//
// A node that crashes and rejoins must recover its view of remote decisions
// before it can participate in optimization again. Two cooperating
// mechanisms provide that (docs/recovery.md walks through the design):
//
//   - Table checkpoints: ExportCheckpoint serializes the node's entire
//     evaluation state — every table's rows *with their arrival-order seq
//     numbers*, the incremental aggregate views, the solver materialization
//     memory, and the replica mirrors below — into a versioned binary
//     snapshot built on the same varint wire primitives as the delta codec
//     (tuple.go). ImportCheckpoint (via RestoreNode) installs it verbatim:
//     because seq numbers survive, a restored node's join enumeration,
//     derivation order, and therefore its solver traces are byte-identical
//     to a node that never failed.
//
//   - Replica mirrors + digest resync: every non-event tuple a node ships
//     is recorded in a sent-side mirror (what I have asserted at that
//     peer), and every delivery in a receive-side mirror (what that peer
//     has asserted here). The two mirrors agree exactly when no message was
//     lost; a crash (in-flight datagrams dropped, state rolled back to the
//     last checkpoint) makes them diverge. StartResync runs a digest
//     exchange — per-table row count plus an order-sensitive hash — with
//     each peer and transfers only the rows needed to re-align the mirrors,
//     applying them through the normal delta pipeline so downstream
//     derivations re-fire.
//
// Resync frames chunk at the same per-frame budget as delta batches, so
// they fit single UDP datagrams at any table size.

import (
	"encoding/binary"
	"fmt"
	"sort"
	"time"

	"repro/internal/colog"
)

// ----------------------------------------------------------- replica mirrors

// mirrorEntry is one row currently asserted across a link, with the
// multiplicity of its assertions (two derivations shipping the same tuple
// count twice, exactly as the destination table counts them).
type mirrorEntry struct {
	key   string
	hash  uint64
	vals  []colog.Value
	count int
}

// mirrorSet is an insertion-ordered multiset of rows. Entries whose count
// drops to zero stay as tombstones (preserving positions of the others)
// until a compaction; digests and diffs only see live entries.
type mirrorSet struct {
	entries []mirrorEntry
	index   map[string]int // live row key -> position in entries
	live    int
	dead    int
}

// note folds one shipped delta into the set.
func (m *mirrorSet) note(vals []colog.Value, sign int) {
	key := valsKey(vals)
	if idx, ok := m.index[key]; ok {
		e := &m.entries[idx]
		if sign > 0 {
			e.count++
		} else {
			e.count--
			if e.count <= 0 {
				delete(m.index, key)
				m.live--
				m.dead++
				m.maybeCompact()
			}
		}
		return
	}
	if sign < 0 {
		return // retracting a row never asserted: nothing to mirror
	}
	if m.index == nil {
		m.index = map[string]int{}
	}
	m.entries = append(m.entries, mirrorEntry{key: key, hash: fnvHash(key), vals: vals, count: 1})
	m.index[key] = len(m.entries) - 1
	m.live++
}

func (m *mirrorSet) maybeCompact() {
	if m.dead <= m.live+16 {
		return
	}
	kept := m.entries[:0]
	for _, e := range m.entries {
		if e.count > 0 {
			m.index[e.key] = len(kept)
			kept = append(kept, e)
		}
	}
	m.entries = kept
	m.dead = 0
}

// digest returns the live row count and the order-sensitive hash over the
// live entries (row hash and count folded in order).
func (m *mirrorSet) digest() (int, uint64) {
	h := uint64(fnvOffset)
	for _, e := range m.entries {
		if e.count <= 0 {
			continue
		}
		h = fnvFold64(h, e.hash)
		h = fnvFold64(h, uint64(e.count))
	}
	return m.live, h
}

const (
	fnvOffset = 14695981039346656037
	fnvPrime  = 1099511628211
)

func fnvHash(s string) uint64 {
	h := uint64(fnvOffset)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= fnvPrime
	}
	return h
}

func fnvFold64(h, v uint64) uint64 {
	for i := 0; i < 8; i++ {
		h ^= v & 0xff
		h *= fnvPrime
		v >>= 8
	}
	return h
}

// ResyncStats counts the anti-entropy work a node performed as the
// *puller*: rows applied (inserts and deletes) while reconciling against
// peers' authoritative row lists, and the payload bytes of the resync rows
// frames that carried them.
type ResyncStats struct {
	RowsPulled  int64
	BytesPulled int64
}

// replica holds a node's mirrors and resync-protocol state. All fields are
// guarded by the owning Node's mu.
type replica struct {
	sent map[string]map[string]*mirrorSet // peer -> pred -> rows asserted there
	recv map[string]map[string]*mirrorSet // peer -> pred -> rows asserted here

	xid         uint64            // exchange-id allocator for pulls this node starts
	pending     map[string]uint64 // peer -> exchange id of the outstanding pull
	digSessions map[string]*digestSession
	rowSessions map[string]*rowsSession
	stats       ResyncStats
}

func (r *replica) init() {
	r.sent = map[string]map[string]*mirrorSet{}
	r.recv = map[string]map[string]*mirrorSet{}
	// Exchange ids must not repeat across process restarts, or a peer's
	// stale session from an abandoned pre-crash exchange could merge with
	// a new one's chunks; a wall-clock seed makes them unique per instance.
	// The value never influences evaluation or frame sizes (fixed 8-byte
	// encoding), so determinism guarantees are unaffected.
	r.xid = uint64(time.Now().UnixNano())
	r.pending = map[string]uint64{}
	r.digSessions = map[string]*digestSession{}
	r.rowSessions = map[string]*rowsSession{}
}

func mirrorOf(m map[string]map[string]*mirrorSet, peer, pred string, create bool) *mirrorSet {
	byPred := m[peer]
	if byPred == nil {
		if !create {
			return nil
		}
		byPred = map[string]*mirrorSet{}
		m[peer] = byPred
	}
	ms := byPred[pred]
	if ms == nil && create {
		ms = &mirrorSet{}
		byPred[pred] = ms
	}
	return ms
}

func (r *replica) noteSent(peer, pred string, vals []colog.Value, sign int) {
	mirrorOf(r.sent, peer, pred, true).note(vals, sign)
}

func (r *replica) noteRecv(peer, pred string, vals []colog.Value, sign int) {
	mirrorOf(r.recv, peer, pred, true).note(vals, sign)
}

// ------------------------------------------------------------- wire framing

// Digest frame (wireResyncDigestVersion): [ver][mode][8-byte exchange id]
// [4-byte chunk index][4-byte chunk total][count byte nTables] then per
// table chunk: name, uvarint liveCount, 8-byte order hash, uvarint
// nHashes, nHashes x 8-byte row hashes. mode 1 asks the responder to also
// start its own pull back toward the requester (the bidirectional exchange
// a restart runs); mode 0 is a plain pull.
//
// Rows frame (wireResyncRowsVersion): [ver][8-byte exchange id][4-byte
// chunk index][4-byte chunk total][count byte nTables] then per table
// chunk: name, uvarint nEntries, per entry a flag byte — 0 (ref): the
// requester already holds the row, 8-byte row hash + uvarint count; 1
// (full): uvarint count + encoded values. The per-table entry list is the
// responder's authoritative assertion state *in mirror order*, so the
// requester can rebuild its receive-side mirror positionally.
//
// Large tables split across chunks (and frames) at maxBatchFrameBytes; the
// receiver accumulates chunks in a per-(peer, exchange) session and only
// processes a message once every chunk of the exchange has arrived —
// chunks may reorder over UDP, and a dropped chunk must never let a
// partial row list masquerade as the complete authoritative state (the
// exchange then simply never completes, which the restart path surfaces).
// The exchange id — unique per node instance, fresh per StartResync, and
// echoed by the responder — keeps a retried exchange from merging with
// chunks of an earlier abandoned one.

const (
	resyncModePull = 0
	resyncModeBidi = 1
)

type digestTable struct {
	name      string
	count     uint64
	orderHash uint64
	hashes    []uint64
}

// digestSession accumulates one exchange's digest chunks until all have
// arrived (chunks may reorder in flight; they are assembled in index
// order).
type digestSession struct {
	mode   byte
	xid    uint64
	total  uint32
	chunks map[uint32][]*digestTable
}

type rowsEntry struct {
	full  bool
	hash  uint64
	count uint64
	vals  []colog.Value
}

type rowsTable struct {
	name    string
	entries []rowsEntry
}

// rowsSession accumulates one exchange's rows chunks until all have
// arrived.
type rowsSession struct {
	xid    uint64
	total  uint32
	chunks map[uint32][]*rowsTable
}

// frameWriter packs chunked sections into frames bounded by
// maxBatchFrameBytes. Each frame restates the section header (the table
// name) so chunks are self-describing, and carries its chunk index; the
// chunk total is patched into every frame when the writer finishes, so a
// receiver can tell a complete exchange from one with frames still in
// flight (or lost). prefix holds the version and mode bytes, suffix the
// 8-byte exchange id.
type frameWriter struct {
	prefix  []byte
	suffix  []byte
	frames  [][]byte
	cur     []byte
	tables  int
	idxFix  int // offset of the current frame's chunk index / total fields
	tposFix int // offset of the current frame's table count byte
}

func newFrameWriter(prefix, suffix []byte) *frameWriter {
	return &frameWriter{prefix: prefix, suffix: suffix}
}

func (w *frameWriter) open() {
	if w.cur != nil {
		return
	}
	w.cur = append([]byte(nil), w.prefix...)
	w.cur = append(w.cur, w.suffix...)
	w.idxFix = len(w.cur)
	w.cur = binary.LittleEndian.AppendUint32(w.cur, uint32(len(w.frames))) // chunk index
	w.cur = binary.LittleEndian.AppendUint32(w.cur, 0)                     // chunk total, patched on finish
	w.tposFix = len(w.cur)
	w.cur = append(w.cur, 0) // table count placeholder (patched; <= 255 kept small by chunking)
	w.tables = 0
}

// add appends one table chunk (already encoded, sans name) under name,
// closing the frame first if the chunk would not fit.
func (w *frameWriter) add(name string, chunk []byte) {
	need := binary.MaxVarintLen64 + len(name) + len(chunk)
	if w.cur != nil && len(w.cur)+need > maxBatchFrameBytes && w.tables > 0 {
		w.closeFrame()
	}
	w.open()
	w.cur = appendWireString(w.cur, name)
	w.cur = append(w.cur, chunk...)
	w.tables++
	if w.tables == 255 { // table count is a single byte; chunk generously below it
		w.closeFrame()
	}
}

func (w *frameWriter) closeFrame() {
	if w.cur == nil {
		return
	}
	w.cur[w.tposFix] = byte(w.tables)
	w.frames = append(w.frames, w.cur)
	w.cur = nil
}

// finish closes the last frame, patches the chunk total into every frame,
// and returns them. With no content, a single empty frame is returned (the
// ack that completes the requester's exchange).
func (w *frameWriter) finish() [][]byte {
	w.open()
	w.closeFrame()
	for _, f := range w.frames {
		binary.LittleEndian.PutUint32(f[w.idxFix+4:], uint32(len(w.frames)))
	}
	return w.frames
}

// chunkLimit bounds the elements encoded into one table chunk so a chunk
// always fits a frame with room to spare.
const chunkLimit = 4096

// ------------------------------------------------------------- requester side

// StartResync initiates an anti-entropy exchange with each peer: the node
// sends a digest of everything it believes each peer has asserted here, and
// the peers respond with the rows needed to re-align. The exchange is
// bidirectional — each peer also pulls this node's assertion state back, so
// a peer holding rows from this node's lost "future" (sent after the
// checkpoint being restored) rolls them back. Completion is asynchronous:
// ResyncPending reports how many peer responses are outstanding.
func (n *Node) StartResync(peers []string) error {
	if n.tr == nil {
		return fmt.Errorf("core: resync: node %s has no transport", n.Addr)
	}
	type out struct {
		peer   string
		frames [][]byte
	}
	var outs []out
	n.mu.Lock()
	for _, peer := range peers {
		if peer == n.Addr {
			continue
		}
		n.repl.xid++
		n.repl.pending[peer] = n.repl.xid
		delete(n.repl.rowSessions, peer) // chunks of an abandoned exchange
		outs = append(outs, out{peer, n.buildDigestFramesLocked(peer, resyncModeBidi, n.repl.xid)})
	}
	n.mu.Unlock()
	if err := n.commit(); err != nil {
		return err
	}
	var firstErr error
	for _, o := range outs {
		for _, f := range o.frames {
			if err := n.tr.Send(n.Addr, o.peer, f); err != nil && firstErr == nil {
				firstErr = err
			}
		}
	}
	return firstErr
}

// ResyncPending reports how many peers have not yet answered this node's
// resync digests.
func (n *Node) ResyncPending() int {
	n.mu.Lock()
	defer n.mu.Unlock()
	return len(n.repl.pending)
}

// ResyncStats returns the node's cumulative anti-entropy pull counters.
func (n *Node) ResyncStats() ResyncStats {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.repl.stats
}

// buildDigestFramesLocked encodes the receive-side mirror for peer into
// digest frames. Caller holds n.mu.
func (n *Node) buildDigestFramesLocked(peer string, mode byte, xid uint64) [][]byte {
	w := newFrameWriter([]byte{wireResyncDigestVersion, mode}, binary.LittleEndian.AppendUint64(nil, xid))
	byPred := n.repl.recv[peer]
	for _, pred := range sortedMirrorPreds(byPred) {
		ms := byPred[pred]
		count, orderHash := ms.digest()
		first := true
		emit := func(hashes []uint64) {
			chunk := binary.AppendUvarint(nil, uint64(count))
			chunk = binary.LittleEndian.AppendUint64(chunk, orderHash)
			chunk = binary.AppendUvarint(chunk, uint64(len(hashes)))
			for _, h := range hashes {
				chunk = binary.LittleEndian.AppendUint64(chunk, h)
			}
			w.add(pred, chunk)
			first = false
		}
		var hashes []uint64
		for _, e := range ms.entries {
			if e.count <= 0 {
				continue
			}
			hashes = append(hashes, e.hash)
			if len(hashes) == chunkLimit {
				emit(hashes)
				hashes = nil
			}
		}
		if len(hashes) > 0 || first {
			emit(hashes)
		}
	}
	return w.finish()
}

func sortedMirrorPreds(m map[string]*mirrorSet) []string {
	names := make([]string, 0, len(m))
	for name := range m {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// ------------------------------------------------------------- responder side

// handleResyncDigest accumulates a peer's digest chunks and, once the
// exchange is complete, answers with the rows frames that re-align the
// peer, sending only full values for rows the digest shows the peer is
// missing. In bidirectional mode it then starts its own pull back toward
// the peer.
func (n *Node) handleResyncDigest(from string, payload []byte) error {
	mode, xid, idx, total, tables, err := decodeDigestFrame(payload)
	if err != nil {
		return err
	}
	n.mu.Lock()
	sess := n.repl.digSessions[from]
	if sess != nil && xid < sess.xid {
		// A delayed chunk of an older, abandoned exchange: discard it
		// rather than clobber the in-progress one. Exchange ids are
		// strictly increasing per requester instance and time-seeded across
		// restarts, so newer exchanges always carry larger ids.
		n.mu.Unlock()
		return nil
	}
	if sess != nil && xid > sess.xid {
		sess = nil // a fresh exchange supersedes the abandoned one
	}
	if sess == nil {
		sess = &digestSession{mode: mode, xid: xid, total: total, chunks: map[uint32][]*digestTable{}}
		n.repl.digSessions[from] = sess
	}
	sess.chunks[idx] = tables
	if len(sess.chunks) < int(sess.total) {
		n.mu.Unlock()
		return nil // chunks still in flight
	}
	delete(n.repl.digSessions, from)
	// Assemble the chunks in index order, merging per-table hash lists.
	order, byName := mergeDigestChunks(sess)
	frames := n.buildRowsFramesLocked(from, xid, order, byName)
	var reverse [][]byte
	if sess.mode == resyncModeBidi {
		n.repl.xid++
		n.repl.pending[from] = n.repl.xid
		delete(n.repl.rowSessions, from) // chunks of an abandoned exchange
		reverse = n.buildDigestFramesLocked(from, resyncModePull, n.repl.xid)
	}
	n.mu.Unlock()
	if err := n.commit(); err != nil {
		return err
	}

	var firstErr error
	for _, f := range frames {
		if err := n.tr.Send(n.Addr, from, f); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	for _, f := range reverse {
		if err := n.tr.Send(n.Addr, from, f); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return firstErr
}

// mergeDigestChunks assembles a completed digest session's chunks in index
// order into per-table digests (hash lists concatenate across chunks).
func mergeDigestChunks(sess *digestSession) ([]string, map[string]*digestTable) {
	idxs := make([]int, 0, len(sess.chunks))
	for idx := range sess.chunks {
		idxs = append(idxs, int(idx))
	}
	sort.Ints(idxs)
	var order []string
	byName := map[string]*digestTable{}
	for _, idx := range idxs {
		for _, t := range sess.chunks[uint32(idx)] {
			cur := byName[t.name]
			if cur == nil {
				byName[t.name] = t
				order = append(order, t.name)
			} else {
				cur.hashes = append(cur.hashes, t.hashes...)
			}
		}
	}
	return order, byName
}

// buildRowsFramesLocked encodes this node's authoritative assertion state
// at peer for every table whose digest mismatched (and every asserted table
// the digest omitted). Caller holds n.mu.
func (n *Node) buildRowsFramesLocked(peer string, xid uint64, reqOrder []string, reqTables map[string]*digestTable) [][]byte {
	byPred := n.repl.sent[peer]
	// Union of the digested tables and the locally asserted tables, digest
	// order first so the requester reconciles in a deterministic order.
	var order []string
	seen := map[string]bool{}
	for _, name := range reqOrder {
		order = append(order, name)
		seen[name] = true
	}
	for _, name := range sortedMirrorPreds(byPred) {
		if !seen[name] {
			order = append(order, name)
		}
	}
	w := newFrameWriter([]byte{wireResyncRowsVersion}, binary.LittleEndian.AppendUint64(nil, xid))
	for _, pred := range order {
		var ms mirrorSet
		if s := byPred[pred]; s != nil {
			ms = *s
		}
		req := reqTables[pred]
		count, orderHash := ms.digest()
		if req != nil && int(req.count) == count && req.orderHash == orderHash {
			continue // aligned: not in the response, requester keeps it
		}
		reqHashes := map[uint64]bool{}
		if req != nil {
			for _, h := range req.hashes {
				reqHashes[h] = true
			}
		}
		var chunk []byte
		entries := 0
		emit := func() {
			buf := binary.AppendUvarint(nil, uint64(entries))
			buf = append(buf, chunk...)
			w.add(pred, buf)
			chunk = chunk[:0]
			entries = 0
		}
		wrote := false
		for _, e := range ms.entries {
			if e.count <= 0 {
				continue
			}
			if reqHashes[e.hash] {
				chunk = append(chunk, 0)
				chunk = binary.LittleEndian.AppendUint64(chunk, e.hash)
				chunk = binary.AppendUvarint(chunk, uint64(e.count))
			} else {
				chunk = append(chunk, 1)
				chunk = binary.AppendUvarint(chunk, uint64(e.count))
				chunk, _ = appendWireVals(chunk, e.vals)
			}
			entries++
			if entries == chunkLimit || len(chunk) >= maxBatchFrameBytes/2 {
				emit()
				wrote = true
			}
		}
		if entries > 0 || !wrote {
			emit() // an empty table chunk tells the requester to clear it
		}
	}
	return w.finish()
}

// ------------------------------------------------------- reconciliation side

// handleResyncRows accumulates a peer's rows chunks and, once the exchange
// is complete, reconciles: for each table in the response the peer's entry
// list is the authoritative state, so rows this node is missing are
// inserted, rows the peer no longer asserts are deleted, multiplicity
// differences are adjusted, and the receive-side mirror is rebuilt in the
// peer's order. Inserts and deletes flow through the normal update
// pipeline, re-firing downstream derivations exactly as live deliveries
// would. The exchange stays pending until the whole plan is applied, so a
// caller polling ResyncPending never observes completion mid-apply.
func (n *Node) handleResyncRows(from string, payload []byte) error {
	xid, idx, total, tables, err := decodeRowsFrame(payload)
	if err != nil {
		return err
	}
	n.mu.Lock()
	if n.repl.pending[from] != xid {
		// A response to an exchange this node no longer waits for.
		n.mu.Unlock()
		return nil
	}
	n.repl.stats.BytesPulled += int64(len(payload))
	sess := n.repl.rowSessions[from]
	if sess != nil && sess.xid != xid {
		sess = nil
	}
	if sess == nil {
		sess = &rowsSession{xid: xid, total: total, chunks: map[uint32][]*rowsTable{}}
		n.repl.rowSessions[from] = sess
	}
	sess.chunks[idx] = tables
	if len(sess.chunks) < int(sess.total) {
		n.mu.Unlock()
		return nil // chunks still in flight
	}
	delete(n.repl.rowSessions, from)
	// Assemble the chunks in index order, merging per-table entry lists.
	idxs := make([]int, 0, len(sess.chunks))
	for i := range sess.chunks {
		idxs = append(idxs, int(i))
	}
	sort.Ints(idxs)
	var tableOrder []string
	byName := map[string]*rowsTable{}
	for _, i := range idxs {
		for _, t := range sess.chunks[uint32(i)] {
			cur := byName[t.name]
			if cur == nil {
				byName[t.name] = t
				tableOrder = append(tableOrder, t.name)
			} else {
				cur.entries = append(cur.entries, t.entries...)
			}
		}
	}

	// Resolve the authoritative lists into concrete rows and compute the
	// update plan under the lock; apply it after releasing (updateFrom
	// re-locks per row, and applying can trigger sends).
	var plan []resyncOp
	var recTables []resyncMirror
	var firstErr error
	for _, name := range tableOrder {
		t := byName[name]
		cur := mirrorOf(n.repl.recv, from, name, true)
		byHash := map[uint64]*mirrorEntry{}
		oldCount := map[string]int{}
		for i := range cur.entries {
			e := &cur.entries[i]
			if e.count <= 0 {
				continue
			}
			byHash[e.hash] = e
			oldCount[e.key] = e.count
		}
		next := &mirrorSet{index: map[string]int{}}
		newCount := map[string]int{}
		bad := false
		for _, re := range t.entries {
			var vals []colog.Value
			if re.full {
				vals = re.vals
			} else {
				e := byHash[re.hash]
				if e == nil {
					// The peer referenced a row this node never listed —
					// protocol drift; skip the table rather than corrupt it.
					bad = true
					break
				}
				vals = e.vals
			}
			key := valsKey(vals)
			if _, dup := next.index[key]; dup {
				bad = true
				break
			}
			next.entries = append(next.entries, mirrorEntry{key: key, hash: fnvHash(key), vals: vals, count: int(re.count)})
			next.index[key] = len(next.entries) - 1
			next.live++
			newCount[key] = int(re.count)
		}
		if bad {
			if firstErr == nil {
				firstErr = fmt.Errorf("core: resync from %s: unresolvable row reference in %s", from, name)
			}
			continue
		}
		// Inserts and count increases first (a keyed replacement consumes
		// the stale row it supersedes), then deletions of rows the peer no
		// longer asserts.
		for _, e := range next.entries {
			if d := e.count - oldCount[e.key]; d > 0 {
				plan = append(plan, resyncOp{name, e.vals, +1, d})
			}
		}
		for i := range cur.entries {
			e := &cur.entries[i]
			if e.count <= 0 {
				continue
			}
			if d := e.count - newCount[e.key]; d > 0 {
				plan = append(plan, resyncOp{name, e.vals, -1, d})
			}
		}
		n.repl.recv[from][name] = next
		recTables = append(recTables, resyncMirror{name: name, entries: next.entries})
	}
	// Log the whole exchange — mirror installs plus the update plan — as
	// one atomic record before applying. Logging the mirror without the
	// plan's effects (or vice versa) would leave a replayed node believing
	// the peer asserted rows its tables never received: the digests would
	// match and the divergence would never heal. One record means a torn
	// write drops both, and the stale mirror triggers a fresh pull.
	if len(recTables)+len(plan) > 0 {
		n.walResync(from, recTables, plan)
	}
	n.mu.Unlock()

	var applied int64
	for _, o := range plan {
		for i := 0; i < o.times; i++ {
			// Origin is empty: the mirror has already been rebuilt above.
			// The ops are covered by the resync record; do not log them
			// individually.
			if err := n.updateFromLogged(o.pred, o.vals, o.sign, "", false); err != nil && firstErr == nil {
				firstErr = err
			}
			applied++
		}
	}
	// Only now is the exchange complete from the caller's point of view.
	n.mu.Lock()
	n.repl.stats.RowsPulled += applied
	if n.repl.pending[from] == xid {
		delete(n.repl.pending, from)
	}
	n.mu.Unlock()
	return firstErr
}

// ------------------------------------------------------------ frame decoding

func decodeDigestFrame(payload []byte) (mode byte, xid uint64, idx, total uint32, tables []*digestTable, err error) {
	fail := func(what string) (byte, uint64, uint32, uint32, []*digestTable, error) {
		return 0, 0, 0, 0, nil, fmt.Errorf("core: decoding resync digest: malformed %s", what)
	}
	if len(payload) < 19 || payload[0] != wireResyncDigestVersion {
		return fail("header")
	}
	mode = payload[1]
	xid = binary.LittleEndian.Uint64(payload[2:])
	idx = binary.LittleEndian.Uint32(payload[10:])
	total = binary.LittleEndian.Uint32(payload[14:])
	if total == 0 || idx >= total {
		return fail("chunk index")
	}
	nTables := int(payload[18])
	rest := payload[19:]
	for i := 0; i < nTables; i++ {
		name, r, ok := readWireString(rest)
		if !ok {
			return fail("table name")
		}
		rest = r
		count, w := binary.Uvarint(rest)
		if w <= 0 {
			return fail("row count")
		}
		rest = rest[w:]
		if len(rest) < 8 {
			return fail("order hash")
		}
		orderHash := binary.LittleEndian.Uint64(rest)
		rest = rest[8:]
		nHashes, w := binary.Uvarint(rest)
		if w <= 0 || nHashes > uint64(len(rest)) {
			return fail("hash count")
		}
		rest = rest[w:]
		if uint64(len(rest)) < 8*nHashes {
			return fail("row hashes")
		}
		t := &digestTable{name: name, count: count, orderHash: orderHash}
		for j := uint64(0); j < nHashes; j++ {
			t.hashes = append(t.hashes, binary.LittleEndian.Uint64(rest))
			rest = rest[8:]
		}
		tables = append(tables, t)
	}
	if len(rest) != 0 {
		return fail("trailer")
	}
	return mode, xid, idx, total, tables, nil
}

func decodeRowsFrame(payload []byte) (xid uint64, idx, total uint32, tables []*rowsTable, err error) {
	fail := func(what string) (uint64, uint32, uint32, []*rowsTable, error) {
		return 0, 0, 0, nil, fmt.Errorf("core: decoding resync rows: malformed %s", what)
	}
	if len(payload) < 18 || payload[0] != wireResyncRowsVersion {
		return fail("header")
	}
	xid = binary.LittleEndian.Uint64(payload[1:])
	idx = binary.LittleEndian.Uint32(payload[9:])
	total = binary.LittleEndian.Uint32(payload[13:])
	if total == 0 || idx >= total {
		return fail("chunk index")
	}
	nTables := int(payload[17])
	rest := payload[18:]
	for i := 0; i < nTables; i++ {
		name, r, ok := readWireString(rest)
		if !ok {
			return fail("table name")
		}
		rest = r
		nEntries, w := binary.Uvarint(rest)
		if w <= 0 || nEntries > uint64(len(rest))+1 {
			return fail("entry count")
		}
		rest = rest[w:]
		t := &rowsTable{name: name}
		for j := uint64(0); j < nEntries; j++ {
			if len(rest) == 0 {
				return fail("entry flag")
			}
			flag := rest[0]
			rest = rest[1:]
			switch flag {
			case 0:
				if len(rest) < 8 {
					return fail("row hash")
				}
				h := binary.LittleEndian.Uint64(rest)
				rest = rest[8:]
				count, w := binary.Uvarint(rest)
				if w <= 0 || count == 0 {
					return fail("ref count")
				}
				rest = rest[w:]
				t.entries = append(t.entries, rowsEntry{hash: h, count: count})
			case 1:
				count, w := binary.Uvarint(rest)
				if w <= 0 || count == 0 {
					return fail("row count")
				}
				rest = rest[w:]
				vals, r, err := readWireVals(rest)
				if err != nil {
					return fail("row values")
				}
				rest = r
				t.entries = append(t.entries, rowsEntry{full: true, count: count, vals: vals})
			default:
				return fail("entry flag")
			}
		}
		tables = append(tables, t)
	}
	if len(rest) != 0 {
		return fail("trailer")
	}
	return xid, idx, total, tables, nil
}
