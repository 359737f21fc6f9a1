package followsun

import (
	"fmt"
	"math/rand"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
)

// RunCluster executes the distributed Follow-the-Sun negotiation to
// completion; it is the package's only experiment runner. Every round's
// matched links — pairwise node-disjoint by construction — negotiate
// concurrently on the worker pool, with the epoch barrier replaying their
// messages in link order. In simulation mode the run is the same at any worker
// count (objectives, per-link solver traces, and per-node wire counters), and
// TestClusterEquivalence pins it to fingerprints recorded from the sequential
// loop it replaced. o.Latency is overridden by p.LinkLatency.
func RunCluster(p Params, o cluster.Options) (*Result, error) {
	o.Latency = p.LinkLatency
	rt := cluster.New(o)
	defer rt.Close()
	r := &runner{
		p:    p,
		rng:  rand.New(rand.NewSource(p.Seed)),
		rt:   rt,
		comm: map[string]map[string]int64{},
		mig:  map[string]int64{},
	}
	if err := r.setup(); err != nil {
		return nil, err
	}

	res := &Result{}
	res.InitialCost = r.totalCost()
	res.Points = append(res.Points, CostPoint{0, 100})

	pending := append([][2]string(nil), r.links...)
	round := 0
	for len(pending) > 0 {
		round++
		// Advance virtual time by one negotiation interval and let the
		// network drain.
		rt.Advance(p.NegotiationInterval)

		var left [][2]string
		matched := matchRound(pending, &left)
		items := make([]cluster.Item, len(matched))
		sress := make([]*core.SolveResult, len(matched))
		elapsed := make([]time.Duration, len(matched))
		for i, lk := range matched {
			i, x, y := i, lk[0], lk[1]
			items[i] = cluster.Item{
				Label: fmt.Sprintf("negotiate %s-%s", x, y),
				Nodes: []string{x},
				Run: func() (*core.SolveResult, error) {
					sres, d, err := r.negotiateSolve(x, y)
					sress[i], elapsed[i] = sres, d
					return sres, err
				},
			}
		}
		if _, err := rt.RunEpoch(items); err != nil {
			return nil, err
		}
		// Fold outcomes sequentially in link order.
		for i, lk := range matched {
			r.fold(lk[0], lk[1], sress[i], elapsed[i])
		}
		pending = left
		// Settle the network and sample the Figure 4 series.
		rt.Advance(500 * time.Millisecond)
		res.Points = append(res.Points, CostPoint{
			T:    rt.Now(),
			Cost: 100 * r.totalCost() / res.InitialCost,
		})
		if round > 10*len(r.links)+10 {
			return nil, fmt.Errorf("followsun: negotiation did not converge after %d rounds", round)
		}
	}
	r.finalize(res, round)
	return res, nil
}
