package cluster

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/transport"
)

// injector returns the transport's failure-injection surface. Both bundled
// transports implement it.
func (r *Runtime) injector() transport.FailureInjector {
	inj, ok := r.inner.(transport.FailureInjector)
	if !ok {
		panic(fmt.Sprintf("cluster: transport %T does not support failure injection", r.inner))
	}
	return inj
}

// StopNode drops a node: every message to or from it is silently lost from
// now on, and the instance is removed from the cluster (Node returns nil).
// The node's spec is kept so RestartNode can rebuild it.
func (r *Runtime) StopNode(addr string) error {
	m := r.members[addr]
	if m == nil {
		return fmt.Errorf("cluster: stopping unknown node %q", addr)
	}
	if m.down {
		return fmt.Errorf("cluster: node %q already stopped", addr)
	}
	m.down = true
	m.node = nil // state dies with the instance
	r.injector().SetNodeDown(addr, true)
	return nil
}

// RestartNode rebuilds a stopped node and reconnects it to the network.
// With a checkpoint available (Options.CheckpointEvery or CheckpointNow),
// the instance is restored from it — tables verbatim, arrival-order seq
// numbers included; otherwise it comes back fresh with only its Seed
// facts. The runtime then runs the anti-entropy exchange against every live
// peer, pulling the rows the node missed while it was down (and rolling
// peers back off anything only the failed instance had asserted). The
// restart is a statistics boundary: pre-failure wire traffic is attributed
// to the preceding epoch and the node's transport counters restart at zero.
func (r *Runtime) RestartNode(addr string) (*core.Node, error) {
	m := r.members[addr]
	if m == nil {
		return nil, fmt.Errorf("cluster: restarting unknown node %q", addr)
	}
	if !m.down {
		return nil, fmt.Errorf("cluster: node %q is not stopped", addr)
	}
	// Close the statistics window: everything counted so far belongs to the
	// failed instance's epochs. Then retire its counters so the restarted
	// instance starts at zero.
	r.closeWindow()
	if resetter, ok := r.inner.(transport.StatsResetter); ok {
		pre := r.inner.NodeStats(addr)
		r.retiredWire.MsgsSent += pre.MsgsSent
		r.retiredWire.MsgsReceived += pre.MsgsReceived
		r.retiredWire.BytesSent += pre.BytesSent
		r.retiredWire.BytesReceived += pre.BytesReceived
		resetter.ResetNodeStats(addr)
	}
	r.lastWire[addr] = transport.Stats{}
	delete(r.lastResync, addr)
	// r.lastLog is deliberately NOT reset: the WAL's record/byte counters
	// are monotonic across restarts (the Store outlives the instance), so
	// the snapshot stays valid and the epoch delta stays correct.

	var n *core.Node
	if st := m.spec.Config.Storage; st != nil && st.Log() != nil {
		// Durable-log path: replay the local write-ahead log while the node
		// is still disconnected — replay must not transmit, and the injector
		// blocks any stray delivery. Only then reconnect and re-inject base
		// facts idempotently (a torn log may have lost some; re-inserts ship
		// derivations to peers, so this runs after un-down). Anti-entropy
		// afterwards pulls only the outage-window rows the log cannot know.
		var err error
		n, err = r.restoreOrReseed(m)
		if err != nil {
			return nil, fmt.Errorf("cluster: restarting %s: %w", addr, err)
		}
		r.injector().SetNodeDown(addr, false)
		if err := ensureBaseFacts(n, m.spec); err != nil {
			r.injector().SetNodeDown(addr, true)
			return nil, fmt.Errorf("cluster: restarting %s: reseeding after replay: %w", addr, err)
		}
	} else {
		// Reconnect first so a reseeding node can ship its base facts to
		// neighbors (a checkpoint restore sends nothing, but its resync will).
		r.injector().SetNodeDown(addr, false)
		var err error
		n, err = r.restoreOrReseed(m)
		if err != nil {
			// A half-built instance may be registered on the transport; re-down
			// the address so it receives no cluster traffic while the runtime
			// still reports the node as stopped.
			r.injector().SetNodeDown(addr, true)
			return nil, fmt.Errorf("cluster: restarting %s: %w", addr, err)
		}
	}
	m.node = n
	m.down = false
	if err := r.resyncNode(addr); err != nil {
		return n, err
	}
	return n, nil
}

// PartitionLink cuts the links between a and b in both directions.
func (r *Runtime) PartitionLink(a, b string) {
	inj := r.injector()
	inj.SetLinkDown(a, b, true)
	inj.SetLinkDown(b, a, true)
}

// HealLink restores the links between a and b in both directions.
func (r *Runtime) HealLink(a, b string) {
	inj := r.injector()
	inj.SetLinkDown(a, b, false)
	inj.SetLinkDown(b, a, false)
}

// SetDeliveryHook installs a transport.DeliveryHook for delayed-delivery
// and probabilistic-loss experiments (ModeSim only).
func (r *Runtime) SetDeliveryHook(h transport.DeliveryHook) {
	st, ok := r.inner.(*transport.Sim)
	if !ok {
		panic("cluster: delivery hooks require ModeSim")
	}
	st.SetDeliveryHook(h)
}
