package core_test

import (
	"crypto/sha256"
	"fmt"
	"math/rand"
	"os"
	"strconv"
	"strings"
	"testing"

	"repro/internal/cluster"
	"repro/internal/colog"
	"repro/internal/core"
	"repro/internal/followsun"
	"repro/internal/programs"
	"repro/internal/wireless"
)

// copTraceGolden pins the search on grounded paper COPs, solved through
// core.Node.Solve with propagation on: status, objective, search nodes,
// failures, incumbents and a digest of the assignments, one line per
// solve. The solver's propagation engine may get faster, but it must not
// change a single pruning decision on these models; a changed line means
// it did. The file was recorded before the engine's per-node costs were
// cut; a deliberate change to the search replaces the affected lines with
// the "got" lines the test prints.
const copTraceGolden = "testdata/cop_trace.golden"

// copTraceLine renders one solve in the copTraceGolden format.
func copTraceLine(name string, r *core.SolveResult) string {
	h := sha256.New()
	for _, a := range r.Assignments {
		fmt.Fprintf(h, "%s%v\n", a.Pred, a.Vals)
	}
	return fmt.Sprintf("%s status=%s obj=%s nodes=%d failures=%d incumbents=%d assign=%x",
		name, r.Status, strconv.FormatFloat(r.Objective, 'g', -1, 64),
		r.Stats.Nodes, r.Stats.Failures, r.Stats.Solutions, h.Sum(nil)[:12])
}

func must(t testing.TB, err error) {
	t.Helper()
	if err != nil {
		t.Fatal(err)
	}
}

// benchACloudNode builds the ACloud data center the serving benchmark's
// acloud-churn workload solves: 4 hosts and 40 VMs with seeded CPU (25..94)
// and memory (64..191) readings, the serving node configuration
// (incremental re-grounding, warm starts, propagation), a node budget of
// maxNodes and a memory threshold of memThres per host. At the benchmark's
// 32768 the memory constraint c2 holds for every placement.
func benchACloudNode(t testing.TB, maxNodes, memThres int64) *core.Node {
	t.Helper()
	entry := programs.ACloud(false, 0)
	cfg := entry.Config
	cfg.SolverMaxNodes = maxNodes
	cfg.SolverPropagate = true
	cfg.SolverIncremental = true
	cfg.SolverWarmStart = true
	cfg.Keys = map[string][]int{"vmRaw": {0}, "origin": {0}, "vm": {0}}
	n, err := core.NewNode("dc0", entry.Analyze(), cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	for h := 0; h < 4; h++ {
		hid := colog.StringVal(fmt.Sprintf("h%d", h))
		must(t, n.Insert("host", hid, colog.IntVal(0), colog.IntVal(0)))
		must(t, n.Insert("hostMemThres", hid, colog.IntVal(memThres)))
	}
	rng := rand.New(rand.NewSource(1))
	for v := 0; v < 40; v++ {
		must(t, n.Insert("vmRaw", colog.StringVal(fmt.Sprintf("vm%d", v)),
			colog.IntVal(25+rng.Int63n(70)), colog.IntVal(64+rng.Int63n(128))))
	}
	return n
}

// followSunLinkCOP returns the first per-link negotiation COP of a
// 5-center Follow-the-Sun run, as the initiating center solved it.
func followSunLinkCOP(t *testing.T) *core.SolveResult {
	t.Helper()
	p := followsun.DefaultParams(5)
	p.SolverMaxNodes = 3000
	var first *core.SolveResult
	_, err := followsun.RunCluster(p, cluster.Options{
		Workers: 1,
		AfterEpoch: func(rt *cluster.Runtime, epoch int) error {
			for i := 0; i < p.NumDCs && first == nil; i++ {
				first = rt.Node(fmt.Sprintf("dc%02d", i)).LastSolveResult
			}
			return nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if first == nil {
		t.Fatal("no per-link solve ran")
	}
	return first
}

// wirelessChannelCOP solves the centralized channel-selection COP of a
// 3x3 wireless grid (two interfaces per node, the 11 partially overlapping
// channels, two-hop interference cost).
func wirelessChannelCOP(t *testing.T) *core.SolveResult {
	t.Helper()
	p := wireless.DefaultParams()
	entry := programs.WirelessCentralized(p.TwoHopCost, p.FMindiff)
	cfg := entry.Config
	cfg.SolverMaxNodes = 3000
	cfg.SolverPropagate = true
	n, err := core.NewNode("manager", entry.Analyze(), cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range p.Channels {
		must(t, n.Insert("availChannel", colog.IntVal(c)))
	}
	topo := wireless.Grid(3, 3)
	for _, id := range topo.Nodes {
		must(t, n.Insert("numInterface", colog.StringVal(string(id)), colog.IntVal(2)))
	}
	for _, l := range topo.Links {
		must(t, n.Insert("link", colog.StringVal(string(l.A)), colog.StringVal(string(l.B))))
		must(t, n.Insert("link", colog.StringVal(string(l.B)), colog.StringVal(string(l.A))))
	}
	res, err := n.Solve(core.SolveOptions{})
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestCOPTraceMatchesRecorded replays the recorded paper COPs and requires
// every line of copTraceGolden to match. The ACloud lines cover the
// benchmark's memory threshold, where c2 is entailed before the search
// starts, and a threshold of 1400 that binds during the search.
func TestCOPTraceMatchesRecorded(t *testing.T) {
	var got []string
	for _, thres := range []int64{32768, 1400} {
		for _, budget := range []int64{1000, 4000} {
			res, err := benchACloudNode(t, budget, thres).Solve(core.SolveOptions{})
			if err != nil {
				t.Fatal(err)
			}
			got = append(got, copTraceLine(fmt.Sprintf("acloud memThres=%d maxNodes=%d", thres, budget), res))
		}
	}
	got = append(got, copTraceLine("followsun first-link", followSunLinkCOP(t)))
	got = append(got, copTraceLine("wireless centralized-3x3", wirelessChannelCOP(t)))

	data, err := os.ReadFile(copTraceGolden)
	if err != nil {
		t.Fatal(err)
	}
	want := strings.Split(strings.TrimSuffix(string(data), "\n"), "\n")
	if len(want) != len(got) {
		t.Fatalf("%s has %d lines, the test produced %d", copTraceGolden, len(want), len(got))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Errorf("line %d diverged:\n got  %s\n want %s", i+1, got[i], want[i])
		}
	}
}
