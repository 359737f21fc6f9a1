package cluster

import (
	"fmt"
	"runtime"
	"testing"
	"time"

	"repro/internal/core"
)

// heavySpec builds node i of an n-node ring whose per-node COP is CPU-bound:
// `items` decision variables and a node budget that fixes the search effort,
// so every epoch item costs roughly the same wall time. The scaling tests
// use it to measure the executor, not the solver.
func heavySpec(t *testing.T, i, n, items int, maxNodes int64) NodeSpec {
	t.Helper()
	spec := ringSpec(testProgram(t), i, n)
	addr := spec.Addr
	spec.Config.SolverMaxNodes = maxNodes
	base := spec.Seed
	spec.Seed = func(nd *core.Node) error {
		if err := base(nd); err != nil {
			return err
		}
		for d := 2; d < items; d++ {
			dn := fmt.Sprintf("d%d", d)
			if err := nd.Insert("item", sval(addr), sval(dn)); err != nil {
				return err
			}
			if err := nd.Insert("w", sval(addr), sval(dn), ival(int64(i+d))); err != nil {
				return err
			}
		}
		// A demand floor deep enough that minimization has real work to do
		// across the widened variable set.
		return nd.Insert("need", sval(addr), ival(int64(2*items)))
	}
	return spec
}

func buildHeavyRing(t *testing.T, o Options, n, items int, maxNodes int64) *Runtime {
	t.Helper()
	r := New(o)
	for i := 0; i < n; i++ {
		if _, err := r.Spawn(heavySpec(t, i, n, items, maxNodes)); err != nil {
			t.Fatal(err)
		}
	}
	r.Settle()
	return r
}

// TestClusterScalingSpeedup pins the tentpole claim on a synthetic
// CPU-heavy epoch: eight independent budget-capped solves must run at least
// 2x faster on an 8-worker pool than sequentially. Timing-sensitive, so it
// skips under -short, under the race detector, and on hosts without enough
// cores to show parallelism.
func TestClusterScalingSpeedup(t *testing.T) {
	if testing.Short() {
		t.Skip("timing assertion, skipped in -short")
	}
	if raceEnabled {
		t.Skip("race instrumentation distorts the speedup measurement")
	}
	if p := runtime.GOMAXPROCS(0); p < 4 {
		// Print through fmt, not t.Skipf: skip reasons only reach the log
		// under -v, and CI must show why the >=3x speedup gate did not run
		// on this host.
		fmt.Printf("cluster: TestClusterScalingSpeedup NOT RUN: GOMAXPROCS=%d < 4 — "+
			"the speedup gate needs >= 4 CPUs to demonstrate parallelism\n", p)
		t.Skipf("needs >= 4 CPUs to demonstrate scaling, have %d", p)
	}
	epochWall := func(workers int) time.Duration {
		best := time.Duration(1<<63 - 1)
		// Best-of-two damps scheduler and GC noise.
		for attempt := 0; attempt < 2; attempt++ {
			r := buildHeavyRing(t, Options{Workers: workers, Latency: time.Millisecond}, 8, 10, 30000)
			st, err := r.RunEpoch(solveItems(r))
			if err != nil {
				t.Fatal(err)
			}
			r.Settle()
			if st.ExecWall < best {
				best = st.ExecWall
			}
		}
		return best
	}
	seq := epochWall(1)
	con := epochWall(8)
	if con > seq/2 {
		t.Fatalf("workers=8 epoch took %v, want <= half of workers=1 epoch (%v)", con, seq)
	}
}

// TestClusterEpochTimingBreakdown: the per-epoch timing fields must be
// populated and mutually consistent — the longest item bounds the exec
// phase, and solver-bearing epochs report ground and solve time.
func TestClusterEpochTimingBreakdown(t *testing.T) {
	r := buildRing(t, Options{Workers: 1, Latency: time.Millisecond}, 3)
	st, err := r.RunEpoch(solveItems(r))
	if err != nil {
		t.Fatal(err)
	}
	if st.ExecWall <= 0 {
		t.Fatalf("ExecWall = %v, want > 0", st.ExecWall)
	}
	if st.GroundWall <= 0 || st.SolveWall <= 0 {
		t.Fatalf("GroundWall = %v, SolveWall = %v, want both > 0", st.GroundWall, st.SolveWall)
	}
	if st.LongestItem == "" || st.LongestWall <= 0 {
		t.Fatalf("longest item not recorded: %q %v", st.LongestItem, st.LongestWall)
	}
	if st.LongestWall > st.ExecWall {
		t.Fatalf("LongestWall %v exceeds ExecWall %v", st.LongestWall, st.ExecWall)
	}
	// Sequential execution: the walls of all items sum into the exec phase,
	// so ground+solve can never exceed it.
	if st.GroundWall+st.SolveWall > st.ExecWall {
		t.Fatalf("ground %v + solve %v exceeds sequential exec wall %v",
			st.GroundWall, st.SolveWall, st.ExecWall)
	}
}

// TestClusterBarrierMergeConcurrent drives the reworked epoch barrier hard:
// a wide ring on a full pool, every item shipping replication traffic
// concurrently into the per-item staging arenas across several epochs. Its
// value is under `go test -race`: any unsynchronized access in the
// Send/begin/commit protocol (or a recycled encode buffer still referenced
// by the arena copy) surfaces here. State must stay byte-identical to the
// sequential run regardless.
func TestClusterBarrierMergeConcurrent(t *testing.T) {
	run := func(workers int) string {
		r := buildRing(t, Options{Workers: workers, Latency: time.Millisecond}, 16)
		for epoch := 0; epoch < 3; epoch++ {
			if _, err := r.RunEpoch(solveItems(r)); err != nil {
				t.Fatal(err)
			}
			r.Advance(10 * time.Millisecond)
		}
		r.Settle()
		return dump(r)
	}
	seq := run(1)
	con := run(8)
	if seq != con {
		t.Fatalf("barrier merge diverged from sequential:\n--- seq\n%s--- con\n%s", seq, con)
	}
}
