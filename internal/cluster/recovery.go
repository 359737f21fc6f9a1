package cluster

import (
	"fmt"
	"time"

	"repro/internal/core"
)

// CheckpointNow exports a checkpoint of every live node immediately,
// independent of Options.CheckpointEvery. RestartNode uses the latest
// checkpoint to rebuild a failed node.
func (r *Runtime) CheckpointNow() error {
	return r.checkpointAll()
}

func (r *Runtime) checkpointAll() error {
	var firstErr error
	for _, addr := range r.order {
		m := r.members[addr]
		if m == nil || m.down {
			continue
		}
		// For nodes with a durable log the export doubles as a compaction:
		// the log is atomically reduced to one checkpoint record, bounding
		// replay time and the log's size.
		data, err := m.node.CheckpointAndCompact()
		if err != nil {
			if firstErr == nil {
				firstErr = fmt.Errorf("cluster: checkpointing %s: %w", addr, err)
			}
			continue
		}
		m.checkpoint = data
	}
	return firstErr
}

// resyncTimeout bounds how long RestartNode waits for the UDP-mode resync
// exchanges to drain; simulated runs settle deterministically instead.
const resyncTimeout = 3 * time.Second

// resyncNode runs the anti-entropy exchange for a freshly restarted node:
// in-flight traffic is drained first (so digests reflect everything already
// delivered), the node sends a digest of its mirrors to every live peer,
// and the exchange — pulls toward the restarted node plus the reverse pulls
// the peers run against it — is driven to completion: deterministically via
// the scheduler in simulation mode, by polling with a timeout over UDP.
func (r *Runtime) resyncNode(addr string) error {
	n := r.members[addr].node
	var peers []string
	for _, a := range r.order {
		if a == addr {
			continue
		}
		if m := r.members[a]; m != nil && !m.down {
			peers = append(peers, a)
		}
	}
	if len(peers) == 0 {
		return nil
	}
	r.Settle()
	if err := n.StartResync(peers); err != nil {
		return fmt.Errorf("cluster: resyncing %s: %w", addr, err)
	}
	if r.sched != nil {
		// Simulated runs settle deterministically — but frames can still be
		// lost to active failure injection (a partitioned link, a delivery
		// hook), so an exchange left outstanding after the drain is an
		// error, exactly as a UDP timeout would be.
		r.Settle()
		if pending := r.resyncPending(); pending > 0 {
			return fmt.Errorf("cluster: resync of %s left %d exchanges outstanding (frames lost to failure injection?)", addr, pending)
		}
		return nil
	}
	deadline := time.Now().Add(resyncTimeout)
	for {
		pending := r.resyncPending()
		if pending == 0 {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("cluster: resync of %s timed out with %d exchanges outstanding", addr, pending)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// resyncPending sums the outstanding resync exchanges across live nodes.
func (r *Runtime) resyncPending() int {
	pending := 0
	for _, a := range r.order {
		if m := r.members[a]; m != nil && !m.down {
			pending += m.node.ResyncPending()
		}
	}
	return pending
}

// resyncDelta returns the summed anti-entropy pull counters accumulated
// since the previous call and advances the per-node snapshots.
func (r *Runtime) resyncDelta() (rows, bytes int64) {
	for _, addr := range r.order {
		m := r.members[addr]
		if m == nil || m.node == nil {
			continue
		}
		cur := m.node.ResyncStats()
		prev := r.lastResync[addr]
		rows += cur.RowsPulled - prev.RowsPulled
		bytes += cur.BytesPulled - prev.BytesPulled
		r.lastResync[addr] = cur
	}
	return rows, bytes
}

// restoreOrReseed builds the replacement instance for a restarted node:
// by replaying its local write-ahead log when the node's storage backend
// has one (the log subsumes checkpoints — compaction folds them in as
// records), otherwise from the latest checkpoint when one exists (state
// installed verbatim, program facts not replayed), otherwise a fresh
// instance with only its Seed facts.
func (r *Runtime) restoreOrReseed(m *member) (*core.Node, error) {
	spec := m.spec
	if r.opts.BatchDeltas {
		spec.Config.BatchDeltas = true
	}
	prog, err := r.program(spec)
	if err != nil {
		return nil, err
	}
	if st := spec.Config.Storage; st != nil && st.Log() != nil {
		return prog.ReplayNode(spec.Addr, spec.Config, r.nodeTransport())
	}
	if m.checkpoint != nil {
		return prog.RestoreNode(spec.Addr, spec.Config, r.nodeTransport(), m.checkpoint)
	}
	n, err := prog.NewNode(spec.Addr, spec.Config, r.nodeTransport())
	if err != nil {
		return nil, err
	}
	if spec.Seed != nil {
		if err := spec.Seed(n); err != nil {
			return nil, fmt.Errorf("reseeding: %w", err)
		}
	}
	return n, nil
}

// ensureBaseFacts re-injects a replayed node's base facts — program facts
// plus the spec's Seed — in idempotent-insert mode: rows the log replay
// already restored are untouched (no count bump, no log record), rows a
// torn log lost are re-inserted. Local base facts are the one input
// anti-entropy cannot pull back from peers, so this closes the last gap in
// crash recovery. Runs after the node is back up: re-inserted facts may
// derive tuples addressed to peers.
func ensureBaseFacts(n *core.Node, spec NodeSpec) error {
	n.SetEnsureInserts(true)
	defer n.SetEnsureInserts(false)
	if err := n.InsertProgramFacts(); err != nil {
		return err
	}
	if spec.Seed != nil {
		return spec.Seed(n)
	}
	return nil
}
