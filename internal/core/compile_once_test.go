package core_test

import (
	"fmt"
	"testing"

	"repro/internal/analysis"
	"repro/internal/cluster"
	"repro/internal/colog"
	"repro/internal/core"
	"repro/internal/followsun"
)

// TestClusterCompilesOncePerRuntime: a cluster runtime spawning N nodes
// from one analysis result compiles the program once, and rebuilding a
// failed node (reseed, checkpoint restore) reuses that Program.
func TestClusterCompilesOncePerRuntime(t *testing.T) {
	prog, err := colog.Parse(`r1 got(@Y,X) <- link(@X,Y).`)
	if err != nil {
		t.Fatal(err)
	}
	res, err := analysis.Analyze(prog, nil)
	if err != nil {
		t.Fatal(err)
	}
	const n = 8
	specs := make([]cluster.NodeSpec, n)
	for i := range specs {
		addr, next := fmt.Sprintf("n%d", i), fmt.Sprintf("n%d", (i+1)%n)
		specs[i] = cluster.NodeSpec{
			Addr:    addr,
			Program: res,
			Seed: func(nd *core.Node) error {
				return nd.Insert("link", colog.StringVal(addr), colog.StringVal(next))
			},
		}
	}
	before := core.CompileCount()
	rt := cluster.New(cluster.Options{Workers: 2, CheckpointEvery: 1})
	defer rt.Close()
	if err := rt.SpawnAll(specs); err != nil {
		t.Fatal(err)
	}
	rt.Settle()
	if got := core.CompileCount() - before; got != 1 {
		t.Fatalf("spawning %d nodes compiled %d times, want 1", n, got)
	}
	if err := rt.StopNode("n3"); err != nil {
		t.Fatal(err)
	}
	if _, err := rt.RestartNode("n3"); err != nil {
		t.Fatal(err)
	}
	if _, err := rt.RunEpoch(nil); err != nil {
		t.Fatal(err)
	}
	if err := rt.StopNode("n5"); err != nil {
		t.Fatal(err)
	}
	if _, err := rt.RestartNode("n5"); err != nil {
		t.Fatal(err)
	}
	if got := core.CompileCount() - before; got != 1 {
		t.Fatalf("spawn plus restarts compiled %d times, want 1", got)
	}
	if rows := rt.Node("n4").Rows("got"); len(rows) != 1 {
		t.Fatalf("n4 holds %d got rows, want 1", len(rows))
	}
}

// TestFollowSunRingCompilesOncePerNegotiation: a Follow-the-Sun
// negotiation on the cluster runtime builds every center from one Program.
func TestFollowSunRingCompilesOncePerNegotiation(t *testing.T) {
	const dcs = 6
	p := followsun.RingParams(dcs)
	before := core.CompileCount()
	if _, err := followsun.RunCluster(p, cluster.Options{Workers: 2}); err != nil {
		t.Fatal(err)
	}
	if got := core.CompileCount() - before; got != 1 {
		t.Fatalf("a %d-center negotiation compiled %d times, want 1", dcs, got)
	}
}
