package main

import (
	"flag"
	"io"
	"net"
	"testing"

	"repro/internal/analysis"
	"repro/internal/colog"
)

func TestParamFlagsSet(t *testing.T) {
	var p paramFlags
	if err := p.Set("max_migrates=3"); err != nil {
		t.Fatal(err)
	}
	if err := p.Set("cost_thres=1.5"); err != nil {
		t.Fatal(err)
	}
	if err := p.Set("region=us-east"); err != nil {
		t.Fatal(err)
	}
	if v := p.vals["max_migrates"]; v.Kind != colog.KindInt || v.I != 3 {
		t.Fatalf("int param = %v", v)
	}
	if v := p.vals["cost_thres"]; v.Kind != colog.KindFloat || v.F != 1.5 {
		t.Fatalf("float param = %v", v)
	}
	if v := p.vals["region"]; v.Kind != colog.KindString || v.S != "us-east" {
		t.Fatalf("string param = %v", v)
	}
}

func TestParamFlagsRejectsMalformed(t *testing.T) {
	var p paramFlags
	if err := p.Set("no-equals-sign"); err == nil {
		t.Fatal("malformed param accepted")
	}
}

// TestSolverFlagsDocumented pins the solver flags the CLI must expose and
// document in -help: budgets and the restart/fixpoint knobs.
func TestSolverFlagsDocumented(t *testing.T) {
	fs := flag.NewFlagSet("cologne", flag.ContinueOnError)
	registerFlags(fs)
	for _, name := range []string{
		"solver-max-time", "solver-max-nodes", "solver-restarts",
		"solver-fixpoint",
	} {
		f := fs.Lookup(name)
		if f == nil {
			t.Fatalf("flag -%s not registered", name)
		}
		if f.Usage == "" {
			t.Fatalf("flag -%s has no help text", name)
		}
	}
}

// TestClusterFlagsDocumented pins the cluster flags the CLI must expose
// and document in -help (docs/tuning.md and docscheck rely on them), and
// that the removed -cluster-scheduling and -cluster-resync flags stay gone.
func TestClusterFlagsDocumented(t *testing.T) {
	fs := flag.NewFlagSet("cologne", flag.ContinueOnError)
	registerFlags(fs)
	for _, name := range []string{
		"cluster-mode", "cluster-workers", "cluster-latency", "cluster-batch",
		"cluster-checkpoint-every",
	} {
		f := fs.Lookup(name)
		if f == nil {
			t.Fatalf("flag -%s not registered", name)
		}
		if f.Usage == "" {
			t.Fatalf("flag -%s has no help text", name)
		}
	}
	for _, name := range []string{"cluster-scheduling", "cluster-resync"} {
		if fs.Lookup(name) != nil {
			t.Fatalf("removed flag -%s is registered", name)
		}
	}
}

// TestClusterModeValidation rejects unknown cluster modes.
func TestClusterModeValidation(t *testing.T) {
	fs := flag.NewFlagSet("cologne", flag.ContinueOnError)
	opts := registerFlags(fs)
	if err := fs.Parse([]string{"-cluster-mode", "carrier-pigeon"}); err != nil {
		t.Fatal(err)
	}
	if _, err := opts.config(); err == nil {
		t.Fatal("unknown cluster mode accepted")
	}
}

// TestClusterAddrs derives the node set from located facts.
func TestClusterAddrs(t *testing.T) {
	src := `
r1 echo(@Y,R) <- link(@X,Y), data(@X,R).
link("b","a").
link("a","b").
data("a",1).
`
	prog, err := colog.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	res, err := analysis.Analyze(prog, nil)
	if err != nil {
		t.Fatal(err)
	}
	addrs := clusterAddrs(res)
	if len(addrs) != 2 || addrs[0] != "a" || addrs[1] != "b" {
		t.Fatalf("clusterAddrs = %v, want [a b]", addrs)
	}
}

// TestSolverSearchFlagValues checks the search flags round-trip to a
// Config, and that the removed -solver-engine flag is a usage error.
func TestSolverSearchFlagValues(t *testing.T) {
	fs := flag.NewFlagSet("cologne", flag.ContinueOnError)
	opts := registerFlags(fs)
	if err := fs.Parse([]string{"-solver-restarts", "2", "-solver-max-nodes", "99"}); err != nil {
		t.Fatal(err)
	}
	cfg, err := opts.config()
	if err != nil {
		t.Fatal(err)
	}
	if cfg.SolverRestarts != 2 || cfg.SolverMaxNodes != 99 {
		t.Fatalf("config = %+v", cfg)
	}
	fs2 := flag.NewFlagSet("cologne", flag.ContinueOnError)
	fs2.SetOutput(io.Discard)
	registerFlags(fs2)
	if err := fs2.Parse([]string{"-solver-engine", "legacy"}); err == nil {
		t.Fatal("-solver-engine accepted")
	}
}

// TestShardFlagsDocumented pins the sharding flags the CLI must expose and
// document in -help (docs/sharding.md and docscheck rely on them).
func TestShardFlagsDocumented(t *testing.T) {
	fs := flag.NewFlagSet("cologne", flag.ContinueOnError)
	registerFlags(fs)
	for _, name := range []string{"shard-count", "shard-agg", "shard-id", "shard-peers"} {
		f := fs.Lookup(name)
		if f == nil {
			t.Fatalf("flag -%s not registered", name)
		}
		if f.Usage == "" {
			t.Fatalf("flag -%s has no help text", name)
		}
	}
}

// TestShardFlagValidation rejects inconsistent sharding flag combinations.
func TestShardFlagValidation(t *testing.T) {
	for _, tc := range [][]string{
		{"-shard-agg", "telepathy"},
		{"-shard-count", "-1"},
		{"-shard-id", "2"},
		{"-shard-peers", "127.0.0.1:1,127.0.0.1:2", "-store", "disk"},
	} {
		fs := flag.NewFlagSet("cologne", flag.ContinueOnError)
		opts := registerFlags(fs)
		if err := fs.Parse(tc); err != nil {
			t.Fatal(err)
		}
		if _, err := opts.config(); err == nil {
			t.Fatalf("flags %v accepted", tc)
		}
	}
}

// TestRunShardProcessSingle drives the multi-process entry point with a
// single shard over a real loopback UDP endpoint: the barriers self-satisfy,
// facts load after the hello barrier, and the solve epoch completes a
// cluster rollup covering the whole (one-shard) deployment.
func TestRunShardProcessSingle(t *testing.T) {
	src := `
r1 echo(@Y,R) <- link(@X,Y), data(@X,R).
link("b","a").
link("a","b").
data("a",1).
`
	prog, err := colog.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	res, err := analysis.Analyze(prog, nil)
	if err != nil {
		t.Fatal(err)
	}
	c, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		t.Fatal(err)
	}
	ep := c.LocalAddr().String()
	c.Close()

	fs := flag.NewFlagSet("cologne", flag.ContinueOnError)
	opts := registerFlags(fs)
	if err := fs.Parse([]string{"-solve", "-shard-peers", ep}); err != nil {
		t.Fatal(err)
	}
	cfg, err := opts.config()
	if err != nil {
		t.Fatal(err)
	}
	if err := runShardProcess(opts, res, cfg); err != nil {
		t.Fatal(err)
	}
}
