// Package repro's benchmark harness regenerates every table and figure of
// the Cologne paper's evaluation (section 6). Each benchmark prints the
// paper's metric through b.ReportMetric, so `go test -bench=. -benchmem`
// produces the full experiment grid; the cmd/ binaries print the same data
// as readable series. EXPERIMENTS.md records paper-vs-measured values.
package repro

import (
	"fmt"
	"math/rand"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/acloud"
	"repro/internal/analysis"
	"repro/internal/cluster"
	"repro/internal/codegen"
	"repro/internal/colog"
	"repro/internal/core"
	"repro/internal/followsun"
	"repro/internal/programs"
	"repro/internal/serve"
	"repro/internal/sim"
	"repro/internal/solver"
	"repro/internal/store"
	"repro/internal/transport"
	"repro/internal/wireless"
)

// ---------------------------------------------------------------- Table 2

// BenchmarkTable2CodeCompactness measures compilation of the five bundled
// protocols into imperative C++ and reports the paper's Table 2 metrics:
// Colog rule count and generated LOC.
func BenchmarkTable2CodeCompactness(b *testing.B) {
	for _, e := range programs.Table2Entries() {
		e := e
		b.Run(e.Name, func(b *testing.B) {
			var rules, loc int
			for i := 0; i < b.N; i++ {
				res := e.Analyze()
				src := codegen.Generate(e.Name, res)
				rules = res.Program.NumRules()
				loc = codegen.CountLines(src)
			}
			b.ReportMetric(float64(rules), "colog-rules")
			b.ReportMetric(float64(loc), "generated-LOC")
			b.ReportMetric(float64(loc)/float64(rules), "LOC/rule")
		})
	}
}

// ------------------------------------------------------------- Figures 2-3

func acloudBenchParams() acloud.Params {
	p := acloud.BenchParams()
	p.VMsPerHost = 10
	p.Hours = 1
	p.SolverMaxNodes = 2500
	p.SolverMaxTime = 500 * time.Millisecond
	p.Trace.Customers = 30
	p.Trace.TotalPPs = 200
	return p
}

// BenchmarkFigure2ACloudStdev replays the trace for each policy and reports
// the Figure 2 metric: mean CPU standard deviation (and its percentage of
// the Default policy's).
func BenchmarkFigure2ACloudStdev(b *testing.B) {
	p := acloudBenchParams()
	base, err := acloud.Run(p, acloud.Default)
	if err != nil {
		b.Fatal(err)
	}
	for _, pol := range []acloud.Policy{acloud.Default, acloud.Heuristic, acloud.ACloud, acloud.ACloudM} {
		pol := pol
		b.Run(pol.String(), func(b *testing.B) {
			var res *acloud.Result
			for i := 0; i < b.N; i++ {
				var err error
				res, err = acloud.Run(p, pol)
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(res.MeanStdev, "cpu-stddev")
			b.ReportMetric(100*res.MeanStdev/base.MeanStdev, "pct-of-default")
		})
	}
}

// BenchmarkFigure3ACloudMigrations reports the Figure 3 metric: mean VM
// migrations per interval, for the unconstrained and capped policies.
func BenchmarkFigure3ACloudMigrations(b *testing.B) {
	p := acloudBenchParams()
	for _, pol := range []acloud.Policy{acloud.Heuristic, acloud.ACloud, acloud.ACloudM} {
		pol := pol
		b.Run(pol.String(), func(b *testing.B) {
			var res *acloud.Result
			for i := 0; i < b.N; i++ {
				var err error
				res, err = acloud.Run(p, pol)
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(res.MeanMigrations, "migrations/interval")
		})
	}
}

// ------------------------------------------------------------- Figures 4-5

func followSunBenchParams(n int) followsun.Params {
	p := followsun.DefaultParams(n)
	p.DemandMax = 6
	p.SolverMaxNodes = 8000
	return p
}

// BenchmarkFigure4FollowTheSunCost runs the distributed negotiation for
// each network size and reports the Figure 4 metrics: total cost reduction
// and convergence (virtual) time.
func BenchmarkFigure4FollowTheSunCost(b *testing.B) {
	for _, n := range []int{2, 4, 6, 8, 10} {
		n := n
		b.Run(fmt.Sprintf("dcs=%d", n), func(b *testing.B) {
			var res *followsun.Result
			for i := 0; i < b.N; i++ {
				var err error
				res, err = followsun.Run(followSunBenchParams(n))
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(res.ReductionPct, "cost-reduction-%")
			b.ReportMetric(res.ConvergenceTime.Seconds(), "convergence-s")
		})
	}
}

// BenchmarkFigure5FollowTheSunBandwidth reports the Figure 5 metric:
// per-node communication overhead in KB/s, per network size.
func BenchmarkFigure5FollowTheSunBandwidth(b *testing.B) {
	for _, n := range []int{2, 4, 6, 8, 10} {
		n := n
		b.Run(fmt.Sprintf("dcs=%d", n), func(b *testing.B) {
			var res *followsun.Result
			for i := 0; i < b.N; i++ {
				var err error
				res, err = followsun.Run(followSunBenchParams(n))
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(res.PerNodeKBps, "KB/s/node")
		})
	}
}

// ------------------------------------------------------------- Figures 6-7

func wirelessBenchParams() wireless.Params {
	p := wireless.DefaultParams()
	p.SolverMaxNodes = 8000
	p.Passes = 2
	p.Rates = []float64{0.2, 0.4, 0.6, 0.8, 1.0, 1.2}
	return p
}

// BenchmarkFigure6WirelessThroughput runs every protocol on the 30-node
// grid and reports the Figure 6 metric: aggregate throughput at the highest
// offered rate.
func BenchmarkFigure6WirelessThroughput(b *testing.B) {
	p := wirelessBenchParams()
	protos := []wireless.Protocol{
		wireless.OneInterface, wireless.IdenticalCh, wireless.Centralized,
		wireless.Distributed, wireless.CrossLayer,
	}
	for _, proto := range protos {
		proto := proto
		b.Run(proto.String(), func(b *testing.B) {
			var res *wireless.Result
			for i := 0; i < b.N; i++ {
				var err error
				res, err = wireless.Run(p, proto)
				if err != nil {
					b.Fatal(err)
				}
			}
			last := len(res.ThroughputMbps) - 1
			b.ReportMetric(res.ThroughputMbps[last], "peak-Mbps")
			b.ReportMetric(float64(res.Interference), "interference-pairs")
		})
	}
}

// BenchmarkFigure7WirelessPolicies runs the Cross-layer protocol under the
// Figure 7 policy variants and reports peak throughput.
func BenchmarkFigure7WirelessPolicies(b *testing.B) {
	base := wirelessBenchParams()
	variants := []struct {
		name string
		mut  func(*wireless.Params)
	}{
		{"2hop", func(*wireless.Params) {}},
		{"restricted-channels", func(q *wireless.Params) { q.RestrictedChannels = true }},
		{"restricted+1hop", func(q *wireless.Params) {
			q.RestrictedChannels = true
			q.TwoHopCost = false
		}},
	}
	for _, v := range variants {
		v := v
		b.Run(v.name, func(b *testing.B) {
			q := base
			v.mut(&q)
			var res *wireless.Result
			for i := 0; i < b.N; i++ {
				var err error
				res, err = wireless.Run(q, wireless.CrossLayer)
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(res.ThroughputMbps[len(res.ThroughputMbps)-1], "peak-Mbps")
		})
	}
}

// -------------------------------------------------- section 6 text metrics

// BenchmarkACloudCompile measures Colog compilation (parse + static
// analysis + plan generation); the paper reports ~0.5 s for ACloud.
func BenchmarkACloudCompile(b *testing.B) {
	e := programs.ACloud(true, 3)
	for i := 0; i < b.N; i++ {
		res := e.Analyze()
		if _, err := core.NewNode("bench", res, e.Config, nil); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFollowSunPerLinkCOP measures one per-link negotiation COP
// (ground + solve + materialize); the paper reports <0.5 s.
func BenchmarkFollowSunPerLinkCOP(b *testing.B) {
	p := followSunBenchParams(4)
	res, err := followsun.Run(p)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportMetric(res.MeanSolveTime.Seconds()*1000, "ms/solve")
	// Re-run whole negotiations to time the solve path end to end.
	for i := 0; i < b.N; i++ {
		if _, err := followsun.Run(p); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFollowSunMigrationCap compares total migrations with and without
// the d11/c3 cap (the paper reports a 24% reduction on average).
func BenchmarkFollowSunMigrationCap(b *testing.B) {
	p := followSunBenchParams(6)
	free, err := followsun.Run(p)
	if err != nil {
		b.Fatal(err)
	}
	p.MaxMigrates = 3
	var capped *followsun.Result
	for i := 0; i < b.N; i++ {
		capped, err = followsun.Run(p)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(free.TotalMigrations), "migrations-uncapped")
	b.ReportMetric(float64(capped.TotalMigrations), "migrations-capped")
}

// BenchmarkWirelessConvergence reports the protocols' convergence times
// (paper: Centralized <30 s wall, Distributed ~40 s, Cross-layer ~80 s of
// testbed time; ours are virtual time for the distributed protocols).
func BenchmarkWirelessConvergence(b *testing.B) {
	p := wirelessBenchParams()
	for _, proto := range []wireless.Protocol{wireless.Centralized, wireless.Distributed, wireless.CrossLayer} {
		proto := proto
		b.Run(proto.String(), func(b *testing.B) {
			var res *wireless.Result
			for i := 0; i < b.N; i++ {
				var err error
				res, err = wireless.Run(p, proto)
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(res.Convergence.Seconds(), "convergence-s")
			b.ReportMetric(res.PerNodeKBps, "KB/s/node")
		})
	}
}

// ------------------------------------------------------------ micro-benches

// BenchmarkEngineInsertFixpoint measures raw incremental evaluation: one
// insert driving a three-rule pipeline with an aggregate.
func BenchmarkEngineInsertFixpoint(b *testing.B) {
	src := `
r1 hot(V,H,C) <- vm(V,H,C), C>50.
r2 perHost(H,SUM<C>) <- hot(V,H,C).
r3 alert(H) <- perHost(H,C), C>200.
`
	prog, err := colog.Parse(src)
	if err != nil {
		b.Fatal(err)
	}
	node := mustNode(b, src)
	_ = prog
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		vm := colog.StringVal(fmt.Sprintf("vm%d", i%1000))
		host := colog.StringVal(fmt.Sprintf("h%d", i%16))
		if err := node.Insert("vm", vm, host, colog.IntVal(int64(40+i%60))); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSolverACloudModel measures one grounding+solve of the ACloud COP
// at 48 VMs x 4 hosts.
func BenchmarkSolverACloudModel(b *testing.B) {
	e := programs.ACloud(false, 0)
	cfg := e.Config
	cfg.SolverMaxNodes = 2000
	cfg.SolverPropagate = true
	res := e.Analyze()
	node, err := core.NewNode("bench", res, cfg, nil)
	if err != nil {
		b.Fatal(err)
	}
	for h := 0; h < 4; h++ {
		node.Insert("host", colog.StringVal(fmt.Sprintf("h%d", h)), colog.IntVal(0), colog.IntVal(0))
		node.Insert("hostMemThres", colog.StringVal(fmt.Sprintf("h%d", h)), colog.IntVal(1<<20))
	}
	for v := 0; v < 48; v++ {
		node.Insert("vmRaw", colog.StringVal(fmt.Sprintf("vm%d", v)),
			colog.IntVal(int64(25+v%60)), colog.IntVal(512))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := node.Solve(core.SolveOptions{}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkParseAnalyze measures the language front end on the largest
// bundled program.
func BenchmarkParseAnalyze(b *testing.B) {
	e := programs.FollowSunDistributed(20)
	for i := 0; i < b.N; i++ {
		prog, err := colog.Parse(e.Source)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := colog.Parse(prog.String()); err != nil {
			b.Fatal(err)
		}
		_ = e.Analyze()
	}
}

// --------------------------------------------------------------- ablations

// BenchmarkAblationLinearPropagation measures the dedicated linear
// propagator's effect on an assignment COP (DESIGN.md design choice:
// selections compiled to constraints still need linear bounds reasoning to
// prune).
func BenchmarkAblationLinearPropagation(b *testing.B) {
	build := func() *solver.Model {
		m := solver.NewModel()
		nI, nB := 10, 3
		loads := make([]*solver.Expr, nB)
		rows := make([][]*solver.Expr, nI)
		for i := 0; i < nI; i++ {
			rows[i] = make([]*solver.Expr, nB)
			rowSum := make([]*solver.Expr, nB)
			for j := 0; j < nB; j++ {
				v := m.BoolVar("x")
				rows[i][j] = m.Mul(m.VarExpr(v), m.ConstInt(int64(10+i*3)))
				rowSum[j] = m.VarExpr(v)
			}
			m.Require(m.Eq(m.Sum(rowSum...), m.Const(1)))
		}
		for j := 0; j < nB; j++ {
			col := make([]*solver.Expr, nI)
			for i := 0; i < nI; i++ {
				col[i] = rows[i][j]
			}
			loads[j] = m.Sum(col...)
		}
		m.Minimize(m.StdDev(loads...))
		return m
	}
	for _, eng := range []solver.Engine{solver.EngineEvent, solver.EngineLegacy} {
		for _, variant := range []struct {
			name    string
			disable bool
		}{{"with-linear", false}, {"without-linear", true}} {
			eng, variant := eng, variant
			b.Run(eng.String()+"/"+variant.name, func(b *testing.B) {
				var nodes int64
				for i := 0; i < b.N; i++ {
					sol := build().Solve(solver.Options{
						Engine: eng, DisableLinear: variant.disable, MaxNodes: 200000,
					})
					nodes = sol.Stats.Nodes
				}
				b.ReportMetric(float64(nodes), "search-nodes")
			})
		}
	}
}

// BenchmarkAblationEventEngine isolates the propagation engine against the
// legacy core on one grounded ACloud COP (same model, same node budget, same
// resulting trace): the difference is pure per-node propagation cost.
func BenchmarkAblationEventEngine(b *testing.B) {
	for _, engine := range []string{"event", "legacy"} {
		engine := engine
		b.Run(engine, func(b *testing.B) {
			e := programs.ACloud(false, 0)
			cfg := e.Config
			cfg.SolverMaxNodes = 600
			cfg.SolverPropagate = true
			cfg.SolverEngine = engine
			node, err := core.NewNode("bench", e.Analyze(), cfg, nil)
			if err != nil {
				b.Fatal(err)
			}
			for h := 0; h < 4; h++ {
				node.Insert("host", colog.StringVal(fmt.Sprintf("h%d", h)), colog.IntVal(0), colog.IntVal(0))
				node.Insert("hostMemThres", colog.StringVal(fmt.Sprintf("h%d", h)), colog.IntVal(1<<20))
			}
			for v := 0; v < 48; v++ {
				node.Insert("vmRaw", colog.StringVal(fmt.Sprintf("vm%d", v)),
					colog.IntVal(int64(25+v%60)), colog.IntVal(512))
			}
			b.ResetTimer()
			var res *core.SolveResult
			for i := 0; i < b.N; i++ {
				res, err = node.Solve(core.SolveOptions{})
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(res.Stats.Nodes), "search-nodes")
			b.ReportMetric(res.Objective, "objective")
		})
	}
}

// BenchmarkAblationWarmStart measures the warm-start hint's effect on the
// ACloud COP (DESIGN.md design choice: anytime B&B from the current
// placement).
func BenchmarkAblationWarmStart(b *testing.B) {
	setup := func(engine string) *core.Node {
		e := programs.ACloud(false, 0)
		cfg := e.Config
		cfg.SolverMaxNodes = 3000
		cfg.SolverPropagate = true
		cfg.SolverEngine = engine
		node, err := core.NewNode("bench", e.Analyze(), cfg, nil)
		if err != nil {
			b.Fatal(err)
		}
		for h := 0; h < 4; h++ {
			node.Insert("host", colog.StringVal(fmt.Sprintf("h%d", h)), colog.IntVal(0), colog.IntVal(0))
			node.Insert("hostMemThres", colog.StringVal(fmt.Sprintf("h%d", h)), colog.IntVal(1<<20))
		}
		for v := 0; v < 32; v++ {
			node.Insert("vmRaw", colog.StringVal(fmt.Sprintf("vm%02d", v)),
				colog.IntVal(int64(25+(v*7)%60)), colog.IntVal(512))
		}
		return node
	}
	lptHint := func(pred string, vals []colog.Value) (int64, bool) {
		// Spread round-robin as a crude warm start.
		if vals[0].S[2:] >= "16" == (vals[1].S == "h1" || vals[1].S == "h3") {
			return 1, true
		}
		return 0, true
	}
	for _, engine := range []string{"event", "legacy"} {
		for _, variant := range []struct {
			name string
			hint func(string, []colog.Value) (int64, bool)
		}{{"with-hint", lptHint}, {"without-hint", nil}} {
			engine, variant := engine, variant
			b.Run(engine+"/"+variant.name, func(b *testing.B) {
				node := setup(engine)
				var obj float64
				for i := 0; i < b.N; i++ {
					res, err := node.Solve(core.SolveOptions{Hint: variant.hint})
					if err != nil {
						b.Fatal(err)
					}
					obj = res.Objective
				}
				b.ReportMetric(obj, "objective")
			})
		}
	}
}

// BenchmarkAblationJoinIndex measures the hash join index against full
// scans by timing a join-heavy insert workload (the index is built lazily;
// scanning is forced by a rule whose join has no bound columns).
func BenchmarkAblationJoinIndex(b *testing.B) {
	// indexed: join on bound H; scan: cross join (no bound columns).
	for _, variant := range []struct{ name, src string }{
		{"indexed-join", `r1 pair(V,W) <- vm(V,H), vm2(W,H).`},
		{"cross-join", `r1 pair(V,W) <- vm(V,H), vm2(W,H2).`},
	} {
		variant := variant
		b.Run(variant.name, func(b *testing.B) {
			node := mustNode(b, variant.src)
			for i := 0; i < 400; i++ {
				node.Insert("vm2", colog.StringVal(fmt.Sprintf("w%d", i)),
					colog.StringVal(fmt.Sprintf("h%d", i%20)))
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				node.Insert("vm", colog.StringVal(fmt.Sprintf("v%d", i)),
					colog.StringVal(fmt.Sprintf("h%d", i%20)))
			}
		})
	}
}

// groundModes compares the streaming grounding pipeline against the
// materialized escape hatch (same emission order byte for byte, pinned by
// TestStreamingGroundEquivalence).
var groundModes = []string{"streaming", "materialized"}

// acloudBenchNode builds the standard 48-VM x 4-host ACloud bench node.
func acloudBenchNode(b *testing.B, mutate func(*core.Config)) *core.Node {
	b.Helper()
	e := programs.ACloud(false, 0)
	cfg := e.Config
	cfg.SolverPropagate = true
	if mutate != nil {
		mutate(&cfg)
	}
	node, err := core.NewNode("bench", e.Analyze(), cfg, nil)
	if err != nil {
		b.Fatal(err)
	}
	for h := 0; h < 4; h++ {
		node.Insert("host", colog.StringVal(fmt.Sprintf("h%d", h)), colog.IntVal(0), colog.IntVal(0))
		node.Insert("hostMemThres", colog.StringVal(fmt.Sprintf("h%d", h)), colog.IntVal(1<<20))
	}
	for v := 0; v < 48; v++ {
		node.Insert("vmRaw", colog.StringVal(fmt.Sprintf("vm%d", v)),
			colog.IntVal(int64(25+v%60)), colog.IntVal(512))
	}
	return node
}

// BenchmarkAblationGroundStream measures the streaming grounding pipeline
// against the materialized join path on a full ACloud solve (same model,
// same trace — the delta is pure grounding cost and garbage).
func BenchmarkAblationGroundStream(b *testing.B) {
	for _, mode := range groundModes {
		mode := mode
		b.Run(mode, func(b *testing.B) {
			node := acloudBenchNode(b, func(cfg *core.Config) {
				cfg.SolverMaxNodes = 600
				cfg.GroundMode = mode
			})
			b.ReportAllocs()
			b.ResetTimer()
			var res *core.SolveResult
			var err error
			for i := 0; i < b.N; i++ {
				res, err = node.Solve(core.SolveOptions{})
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(res.Stats.Nodes), "search-nodes")
		})
	}
}

// BenchmarkGroundPeakAlloc isolates grounding-path allocation on a
// join-heavy COP: a small variable set joined against a 4000-row ground
// table inside a solver derivation rule. The model is tiny and the solve
// stops at the first incumbent, so B/op and allocs/op are dominated by join
// execution — where the materialized path lifts every ground row into a
// fresh symbolic tuple and builds transient indexes per solve, and the
// streaming path probes the table's persistent seq-ordered index over raw
// rows. The CI allocation gate (TestGroundAllocBudget) holds the streaming
// variant under the budget committed in ground_alloc_budget.txt.
func BenchmarkGroundPeakAlloc(b *testing.B) {
	for _, mode := range groundModes {
		b.Run(mode, groundPeakAllocBench(mode))
	}
}

// groundPeakAllocBench is one BenchmarkGroundPeakAlloc variant, shared with
// the TestGroundAllocBudget regression gate.
func groundPeakAllocBench(mode string) func(b *testing.B) {
	src := `
goal minimize C in cost(C).
var sel(S,T) forall site(S).

site(1). site(2). site(3). site(4). site(5). site(6). site(7). site(8).
link(1,0,50).

d1 siteCost(S,SUM<X>) <- sel(S,T), link(S,7,W), X==T*W.
d2 cost(SUM<X>) <- siteCost(S,X).
`
	return func(b *testing.B) {
		prog, err := colog.Parse(src)
		if err != nil {
			b.Fatal(err)
		}
		ares, err := analysis.Analyze(prog, nil)
		if err != nil {
			b.Fatal(err)
		}
		node, err := core.NewNode("bench", ares, core.Config{
			SolverPropagate: true,
			GroundMode:      mode,
		}, nil)
		if err != nil {
			b.Fatal(err)
		}
		for s := 1; s <= 8; s++ {
			for k := 1; k < 500; k++ {
				if err := node.Insert("link", colog.IntVal(int64(s)),
					colog.IntVal(int64(k)), colog.IntVal(int64(10+(s*k)%90))); err != nil {
					b.Fatal(err)
				}
			}
		}
		// One warmup solve pays the one-time index/snapshot builds so the
		// measured B/op is the steady-state grounding cost at any -benchtime.
		if _, err := node.Solve(core.SolveOptions{FirstSolution: true}); err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := node.Solve(core.SolveOptions{FirstSolution: true}); err != nil {
				b.Fatal(err)
			}
		}
	}
}

func mustNode(b *testing.B, src string) *core.Node {
	b.Helper()
	prog, err := colog.Parse(src)
	if err != nil {
		b.Fatal(err)
	}
	ares, err := analysis.Analyze(prog, nil)
	if err != nil {
		b.Fatal(err)
	}
	node, err := core.NewNode("bench", ares, core.Config{}, nil)
	if err != nil {
		b.Fatal(err)
	}
	return node
}

// ----------------------------------------------- tick-over-tick re-solves

// tickModes compares fresh re-grounding against the incremental
// re-grounding subsystem (same solutions tick for tick, pinned by the
// TestIncrementalEquivalence suites).
var tickModes = []struct {
	name        string
	incremental bool
}{{"fresh", false}, {"incremental", true}}

// BenchmarkTickResolveACloud measures one ACloud tick at 48 VMs x 4 hosts:
// a quarter of the VMs report a new CPU reading (demand shifts are
// localized per customer), then the COP re-solves under a tick-sized node
// budget. The churn is pure value updates, so the incremental grounder
// patches constants in place instead of rebuilding the model.
func BenchmarkTickResolveACloud(b *testing.B) {
	for _, mode := range tickModes {
		mode := mode
		b.Run(mode.name, func(b *testing.B) {
			e := programs.ACloud(false, 0)
			cfg := e.Config
			cfg.SolverMaxNodes = 600
			cfg.SolverPropagate = true
			cfg.SolverIncremental = mode.incremental
			cfg.Keys = map[string][]int{"vmRaw": {0}, "vm": {0}}
			node, err := core.NewNode("bench", e.Analyze(), cfg, nil)
			if err != nil {
				b.Fatal(err)
			}
			for h := 0; h < 4; h++ {
				node.Insert("host", colog.StringVal(fmt.Sprintf("h%d", h)), colog.IntVal(0), colog.IntVal(0))
				node.Insert("hostMemThres", colog.StringVal(fmt.Sprintf("h%d", h)), colog.IntVal(1<<20))
			}
			var last *core.SolveResult
			tick := func(i int) {
				for v := i * 12 % 48; v < i*12%48+12; v++ {
					node.Insert("vmRaw", colog.StringVal(fmt.Sprintf("vm%02d", v)),
						colog.IntVal(int64(25+(v*13+i*7)%60)), colog.IntVal(512))
				}
				res, err := node.Solve(core.SolveOptions{})
				if err != nil {
					b.Fatal(err)
				}
				last = res
			}
			for v := 0; v < 48; v++ {
				node.Insert("vmRaw", colog.StringVal(fmt.Sprintf("vm%02d", v)),
					colog.IntVal(int64(25+v*13%60)), colog.IntVal(512))
			}
			tick(0) // prime the grounding cache
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				tick(i + 1)
			}
			b.ReportMetric(float64(last.Stats.Nodes), "search-nodes")
			if last.Ground != nil {
				b.ReportMetric(float64(last.Ground.ConstsPatched), "consts-patched")
			}
		})
	}
}

// BenchmarkTickResolveFollowSun measures one Follow-the-Sun re-negotiation
// tick on a persistent link: both endpoints' demand allocations drift
// (keyed value updates on curVm), then the initiator re-solves its per-link
// COP.
func BenchmarkTickResolveFollowSun(b *testing.B) {
	for _, mode := range tickModes {
		mode := mode
		b.Run(mode.name, func(b *testing.B) {
			sched := sim.NewScheduler()
			tr := transport.NewSim(sched, time.Millisecond)
			entry := programs.FollowSunDistributed(1 << 30)
			names := []string{"dc00", "dc01", "dc02", "dc03", "dc04", "dc05", "dc06",
				"dc07", "dc08", "dc09", "dc10", "dc11", "dc12", "dc13"}
			// Demand locations span more than the two negotiating nodes, as
			// in the full experiment: the per-link COP decides a migration
			// variable per demand.
			demands := []string{"dc00", "dc01", "dm02"}
			nodes := map[string]*core.Node{}
			for _, name := range names {
				cfg := entry.Config
				cfg.SolverMaxNodes = 2000
				cfg.SolverPropagate = true
				cfg.SolverWarmStart = true
				cfg.SolverIncremental = mode.incremental
				node, err := core.NewNode(name, entry.Analyze(), cfg, tr)
				if err != nil {
					b.Fatal(err)
				}
				nodes[name] = node
			}
			for _, x := range names {
				node := nodes[x]
				for v := int64(-1); v <= 1; v++ {
					node.Insert("migRange", colog.IntVal(v))
				}
				node.Insert("opCost", colog.StringVal(x), colog.IntVal(10))
				node.Insert("resource", colog.StringVal(x), colog.IntVal(60))
				for di, d := range demands {
					cc := int64(0)
					if d != x {
						cc = 50 + int64(di*17)%50
					}
					node.Insert("commCost", colog.StringVal(x), colog.StringVal(d), colog.IntVal(cc))
					node.Insert("dc", colog.StringVal(x), colog.StringVal(d))
					node.Insert("curVm", colog.StringVal(x), colog.StringVal(d), colog.IntVal(int64(3+di)))
				}
			}
			// A star around the initiator: every other DC is a neighbour whose
			// state replicates into dc01's per-link COP.
			for _, peer := range names {
				if peer == "dc01" {
					continue
				}
				for _, pair := range [][2]string{{"dc01", peer}, {peer, "dc01"}} {
					nodes[pair[0]].Insert("link", colog.StringVal(pair[0]), colog.StringVal(pair[1]))
					nodes[pair[0]].Insert("migCost", colog.StringVal(pair[0]), colog.StringVal(pair[1]), colog.IntVal(12))
				}
			}
			sched.Run(sched.Now() + time.Second)
			// The link under negotiation persists across ticks.
			nodes["dc01"].Insert("setLink", colog.StringVal("dc01"), colog.StringVal("dc00"))
			var last *core.SolveResult
			tick := func(i int) {
				for xi, x := range names[:1] {
					for di, d := range demands {
						alloc := int64(2 + (xi*3+di*5+i)%7)
						nodes[x].Insert("curVm", colog.StringVal(x), colog.StringVal(d), colog.IntVal(alloc))
					}
				}
				sched.Run(sched.Now() + 100*time.Millisecond)
				res, err := nodes["dc01"].Solve(core.SolveOptions{})
				if err != nil {
					b.Fatal(err)
				}
				last = res
				sched.Run(sched.Now() + 100*time.Millisecond)
			}
			tick(0) // prime the grounding cache
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				tick(i + 1)
			}
			b.ReportMetric(float64(last.Stats.Nodes), "search-nodes")
			if last.Ground != nil {
				b.ReportMetric(float64(last.Ground.ConstsPatched), "consts-patched")
			}
		})
	}
}

// ------------------------------------------------------- Cluster runtime

// BenchmarkClusterFollowSunRing runs the generated 200-link Follow-the-Sun
// ring on the concurrent cluster runtime (sparse demand universe, matched
// rounds negotiating concurrently) and reports negotiation and traffic
// totals. The workers dimension shows the concurrency win at identical
// results — sim-mode cluster runs are byte-identical at any pool size.
func BenchmarkClusterFollowSunRing(b *testing.B) {
	for _, workers := range []int{1, 8} {
		workers := workers
		b.Run(fmt.Sprintf("links=200/workers=%d", workers), func(b *testing.B) {
			var res *followsun.Result
			for i := 0; i < b.N; i++ {
				var err error
				res, err = followsun.RunCluster(followsun.RingParams(200), cluster.Options{Workers: workers})
				if err != nil {
					b.Fatal(err)
				}
			}
			var msgs int64
			for _, st := range res.WireStats {
				msgs += st.MsgsSent
			}
			b.ReportMetric(float64(res.PerLinkSolves), "link-solves")
			b.ReportMetric(float64(res.Rounds), "rounds")
			b.ReportMetric(float64(msgs), "msgs-sent")
			b.ReportMetric(100-res.FinalCost, "cost-reduction-pct")
		})
	}
}

// BenchmarkClusterWirelessGrid runs distributed channel selection on a
// generated 200-node grid (20 x 10, 355 links) with concurrent negotiation
// waves, with and without per-(epoch,destination) delta batching. The
// msgs-sent metric is the acceptance number: batching must reduce it at
// identical channel decisions.
func BenchmarkClusterWirelessGrid(b *testing.B) {
	for _, batch := range []bool{false, true} {
		batch := batch
		b.Run(fmt.Sprintf("nodes=200/batch=%v", batch), func(b *testing.B) {
			var res *wireless.Result
			for i := 0; i < b.N; i++ {
				var err error
				res, err = wireless.RunClusterWaves(wireless.ScaledGridParams(20, 10),
					cluster.Options{Workers: 8, BatchDeltas: batch})
				if err != nil {
					b.Fatal(err)
				}
			}
			var msgs, bytes int64
			for _, st := range res.WireStats {
				msgs += st.MsgsSent
				bytes += st.BytesSent
			}
			b.ReportMetric(float64(msgs), "msgs-sent")
			b.ReportMetric(float64(bytes), "bytes-sent")
			b.ReportMetric(float64(res.Interference), "interference")
			b.ReportMetric(float64(res.SolverNodes), "search-nodes")
		})
	}
}

// BenchmarkShardedEpoch runs the 200-node wireless grid's concurrent
// negotiation waves through the sharded runtime at 1, 2, and 4 key-range
// shards under hierarchical rollup aggregation, plus the all-pairs gossip
// ablation at 4 shards. Node decisions, solver traces, and node wire
// counters are byte-identical at every setting (the shard-equivalence gate
// pins that); agg-msgs is the acceptance number — the rollup tree costs
// shards-1 frames per epoch where all-pairs costs shards*(shards-1).
func BenchmarkShardedEpoch(b *testing.B) {
	for _, c := range []struct {
		shards int
		agg    string
	}{
		{1, cluster.AggregationRollup},
		{2, cluster.AggregationRollup},
		{4, cluster.AggregationRollup},
		{4, cluster.AggregationAllPairs},
	} {
		c := c
		b.Run(fmt.Sprintf("shards=%d/agg=%s", c.shards, c.agg), func(b *testing.B) {
			p := wireless.ScaledGridParams(20, 10)
			var res *wireless.Result
			for i := 0; i < b.N; i++ {
				var err error
				res, err = wireless.RunClusterWaves(p, cluster.Options{
					Workers:     8,
					Shards:      wireless.GridShardPlan(p.GridW, c.shards),
					Aggregation: c.agg,
				})
				if err != nil {
					b.Fatal(err)
				}
			}
			var msgs int64
			for _, st := range res.WireStats {
				msgs += st.MsgsSent
			}
			b.ReportMetric(float64(msgs), "msgs-sent")
			b.ReportMetric(float64(res.AggMsgs), "agg-msgs")
			b.ReportMetric(float64(res.AggBytes), "agg-bytes")
			b.ReportMetric(float64(res.SolverNodes), "search-nodes")
		})
	}
}

// resyncBenchSrc is the miniature distributed COP the recovery benchmark
// runs: per-node picks minimizing weighted cost under a demand floor, with
// decisions replicated to the ring neighbor (the solve→replicate round
// shape of the real scenarios; same program as the cluster runtime's own
// failure-injection suite).
const resyncBenchSrc = `
goal minimize C in cost(@X,C).
var pick(@X,D,V) forall item(@X,D) domain [0,5].

d1 cost(@X,SUM<E>) <- pick(@X,D,V), w(@X,D,W), E==V*W.
d2 total(@X,SUM<V>) <- pick(@X,D,V).
c1 total(@X,V) -> need(@X,N), V>=N.

r1 got(@Y,X,D,V2) <- link(@X,Y), pick(@X,D,V), V2:=V.
`

// resyncBenchSpecs builds the 8-node decision-replicating ring specs the
// recovery benchmark kills and restarts.
func resyncBenchSpecs(b *testing.B) []cluster.NodeSpec {
	b.Helper()
	prog, err := colog.Parse(resyncBenchSrc)
	if err != nil {
		b.Fatal(err)
	}
	ares, err := analysis.Analyze(prog, nil)
	if err != nil {
		b.Fatal(err)
	}
	const nodes, items = 8, 6
	specs := make([]cluster.NodeSpec, nodes)
	for i := 0; i < nodes; i++ {
		i := i
		addr := fmt.Sprintf("n%d", i)
		next := fmt.Sprintf("n%d", (i+1)%nodes)
		specs[i] = cluster.NodeSpec{
			Addr:    addr,
			Program: ares,
			Config: core.Config{
				SolverPropagate: true,
				Keys:            map[string][]int{"got": {0, 1, 2}},
			},
			Seed: func(n *core.Node) error {
				for d := 0; d < items; d++ {
					dn := fmt.Sprintf("d%d", d)
					if err := n.Insert("item", colog.StringVal(addr), colog.StringVal(dn)); err != nil {
						return err
					}
					if err := n.Insert("w", colog.StringVal(addr), colog.StringVal(dn), colog.IntVal(int64(i+d+1))); err != nil {
						return err
					}
				}
				if err := n.Insert("need", colog.StringVal(addr), colog.IntVal(int64(3+i%3))); err != nil {
					return err
				}
				return n.Insert("link", colog.StringVal(addr), colog.StringVal(next))
			},
		}
	}
	return specs
}

// BenchmarkResync measures recovery cost on a decision-replicating ring:
// after churned epochs a node is killed (its in-flight decisions lost) and
// restarted, and the automatic anti-entropy exchange pulls it back into
// alignment. The variants compare the three recovery paths — reseed (no
// durable state: full re-pull), checkpoint (restore the periodic snapshot,
// pull the gap), and walreplay (store=disk: replay the local write-ahead
// log, pull only the outage window). Reported metrics: the
// restart-to-converged latency and the rows/bytes the exchange pulled —
// the recovery-cost numbers BENCH_*.json tracks across commits.
func BenchmarkResync(b *testing.B) {
	for _, variant := range []struct {
		name string
		opts cluster.Options
	}{
		{"reseed", cluster.Options{Workers: 4, Latency: time.Millisecond}},
		{"checkpoint", cluster.Options{Workers: 4, Latency: time.Millisecond, CheckpointEvery: 1}},
		{"walreplay", cluster.Options{Workers: 4, Latency: time.Millisecond, Storage: "disk"}},
	} {
		variant := variant
		b.Run(variant.name, func(b *testing.B) {
			specs := resyncBenchSpecs(b)
			const victim = "n2"
			var restart time.Duration
			var rows, bytes, logBytes int64
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				opts := variant.opts
				if opts.Storage == "disk" {
					b.StopTimer()
					opts.StorageDir = b.TempDir()
					b.StartTimer()
				}
				r := cluster.New(opts)
				if err := r.SpawnAll(specs); err != nil {
					b.Fatal(err)
				}
				r.Settle()
				solveAll := func() {
					var eps []cluster.Item
					for _, addr := range r.Addrs() {
						n := r.Node(addr)
						eps = append(eps, cluster.Item{
							Label: "solve " + addr,
							Nodes: []string{addr},
							Run:   func() (*core.SolveResult, error) { return n.Solve(core.SolveOptions{}) },
						})
					}
					if _, err := r.RunEpoch(eps); err != nil {
						b.Fatal(err)
					}
				}
				for epoch := 0; epoch < 2; epoch++ {
					solveAll()
					for j, addr := range r.Addrs() {
						if err := r.Node(addr).Insert("need", colog.StringVal(addr), colog.IntVal(int64(5+epoch+j))); err != nil {
							b.Fatal(err)
						}
					}
				}
				if err := r.StopNode(victim); err != nil {
					b.Fatal(err)
				}
				r.Settle() // in-flight decisions to the victim are lost
				start := time.Now()
				if _, err := r.RestartNode(victim); err != nil {
					b.Fatal(err)
				}
				restart += time.Since(start)
				hist := r.History()
				for _, st := range hist {
					rows += st.ResyncRows
					bytes += st.ResyncBytes
					logBytes += st.LogBytes
				}
				if err := r.Close(); err != nil {
					b.Fatal(err)
				}
			}
			n := float64(b.N)
			b.ReportMetric(float64(restart.Microseconds())/n, "restart-to-converged-us")
			b.ReportMetric(float64(rows)/n, "resync-rows")
			b.ReportMetric(float64(bytes)/n, "resync-bytes")
			b.ReportMetric(float64(logBytes)/n, "log-bytes")
		})
	}
}

// BenchmarkWALAppend measures the write-ahead log's append path on
// update-record-sized payloads: "nosync" is a plain append (what a record
// costs between commit points), "fsync" commits after every record (the
// worst case, a commit point per transition, under -store-fsync).
func BenchmarkWALAppend(b *testing.B) {
	payload := make([]byte, 64) // a typical update record
	for i := range payload {
		payload[i] = byte(i)
	}
	for _, variant := range []struct {
		name  string
		fsync bool
	}{{"nosync", false}, {"fsync", true}} {
		variant := variant
		b.Run(variant.name, func(b *testing.B) {
			w, err := store.OpenWAL(filepath.Join(b.TempDir(), "wal.log"), variant.fsync)
			if err != nil {
				b.Fatal(err)
			}
			defer w.Close()
			b.SetBytes(int64(len(payload)))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := w.Append(payload); err != nil {
					b.Fatal(err)
				}
				if err := w.Sync(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkLogReplayRestart measures a cold restart from the local log: a
// disk-backed node records a keyed churn workload, then each iteration
// rebuilds the node purely by replaying the write-ahead log — the
// restart-latency half of the recovery trade BenchmarkResync prices in
// resync rows.
func BenchmarkLogReplayRestart(b *testing.B) {
	src := `
r1 hot(V,H,C) <- vm(V,H,C), C>50.
r2 perHost(H,SUM<C>) <- hot(V,H,C).
`
	prog, err := colog.Parse(src)
	if err != nil {
		b.Fatal(err)
	}
	ares, err := analysis.Analyze(prog, nil)
	if err != nil {
		b.Fatal(err)
	}
	st, err := store.Open("disk", b.TempDir(), false)
	if err != nil {
		b.Fatal(err)
	}
	defer st.Close()
	cfg := core.Config{Keys: map[string][]int{"vm": {0}}, Storage: st}
	node, err := core.NewNode("bench", ares, cfg, nil)
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < 4000; i++ {
		vm := colog.StringVal(fmt.Sprintf("vm%d", i%800))
		host := colog.StringVal(fmt.Sprintf("h%d", i%16))
		if err := node.Insert("vm", vm, host, colog.IntVal(int64(40+i%60))); err != nil {
			b.Fatal(err)
		}
	}
	records, logBytes := node.LogStats()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.ReplayNode("bench", ares, cfg, nil); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(records), "log-records")
	b.ReportMetric(float64(logBytes), "log-bytes")
}

// BenchmarkClusterScaling measures the epoch executor itself: eight nodes
// each solving an independent budget-capped COP (equal per-item cost by
// construction), one item per node, swept over pool sizes. ns/op is the
// epoch wall time — on a multi-core host it should drop near-linearly with
// workers until the item count is the limit, while results stay
// byte-identical (the equivalence suites pin that). The parallelism metric
// is (ground+solve CPU time)/(epoch wall): ~1 sequentially, approaching
// min(workers, items) on an idle multi-core host.
func BenchmarkClusterScaling(b *testing.B) {
	prog, err := colog.Parse(resyncBenchSrc)
	if err != nil {
		b.Fatal(err)
	}
	ares, err := analysis.Analyze(prog, nil)
	if err != nil {
		b.Fatal(err)
	}
	const nodes, items = 8, 10
	specs := make([]cluster.NodeSpec, nodes)
	for i := 0; i < nodes; i++ {
		i := i
		addr := fmt.Sprintf("n%d", i)
		next := fmt.Sprintf("n%d", (i+1)%nodes)
		specs[i] = cluster.NodeSpec{
			Addr:    addr,
			Program: ares,
			Config: core.Config{
				SolverPropagate: true,
				SolverMaxNodes:  8000,
				Keys:            map[string][]int{"got": {0, 1, 2}},
			},
			Seed: func(n *core.Node) error {
				for d := 0; d < items; d++ {
					dn := fmt.Sprintf("d%d", d)
					if err := n.Insert("item", colog.StringVal(addr), colog.StringVal(dn)); err != nil {
						return err
					}
					if err := n.Insert("w", colog.StringVal(addr), colog.StringVal(dn), colog.IntVal(int64(i+d+1))); err != nil {
						return err
					}
				}
				if err := n.Insert("need", colog.StringVal(addr), colog.IntVal(2*items)); err != nil {
					return err
				}
				return n.Insert("link", colog.StringVal(addr), colog.StringVal(next))
			},
		}
	}
	for _, workers := range []int{1, 2, 4, 8} {
		workers := workers
		b.Run(fmt.Sprintf("nodes=%d/workers=%d", nodes, workers), func(b *testing.B) {
			r := cluster.New(cluster.Options{Workers: workers, Latency: time.Millisecond})
			if err := r.SpawnAll(specs); err != nil {
				b.Fatal(err)
			}
			r.Settle()
			var epochItems []cluster.Item
			for _, addr := range r.Addrs() {
				n := r.Node(addr)
				epochItems = append(epochItems, cluster.Item{
					Label: "solve " + addr,
					Nodes: []string{addr},
					Run:   func() (*core.SolveResult, error) { return n.Solve(core.SolveOptions{}) },
				})
			}
			var last cluster.EpochStats
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				st, err := r.RunEpoch(epochItems)
				if err != nil {
					b.Fatal(err)
				}
				last = st
				r.Settle()
			}
			b.StopTimer()
			if last.ExecWall > 0 {
				b.ReportMetric((last.GroundWall+last.SolveWall).Seconds()/last.ExecWall.Seconds(), "parallelism")
			}
			b.ReportMetric(float64(last.SolverNodes), "search-nodes")
			if err := r.Close(); err != nil {
				b.Fatal(err)
			}
		})
	}
}

// BenchmarkClusterACloudScaled balances a generated 12-data-center ACloud
// workload, per-DC COPs solved concurrently on the worker pool; the
// workers dimension measures the pool speedup on independent solves.
func BenchmarkClusterACloudScaled(b *testing.B) {
	p := acloud.ScaledParams(12)
	for _, workers := range []int{1, 8} {
		workers := workers
		b.Run(fmt.Sprintf("dcs=12/workers=%d", workers), func(b *testing.B) {
			var res *acloud.Result
			for i := 0; i < b.N; i++ {
				var err error
				res, err = acloud.RunCluster(p, acloud.ACloud, cluster.Options{Workers: workers})
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(res.MeanStdev, "cpu-stddev")
			b.ReportMetric(res.MeanMigrations, "migrations/interval")
		})
	}
}

// ------------------------------------------------------- Serving runtime

// BenchmarkServingChurn drives the continuous-serving runtime (PR 9) for
// each paper scenario: a seeded churn stream is offered through the
// admission queue and ticked under a node-count budget, exactly the
// cmd/serve loop. Reported metrics are the serving SLOs: sustained
// churn-events/sec and p50/p99 decision latency.
func BenchmarkServingChurn(b *testing.B) {
	builders := map[string]func(cfg serve.Config, seed int64) (*serve.Scenario, error){
		"acloud": func(cfg serve.Config, seed int64) (*serve.Scenario, error) {
			p := acloud.DefaultServingParams()
			p.Seed = seed
			return acloud.NewServing(p, cfg)
		},
		"followsun": func(cfg serve.Config, seed int64) (*serve.Scenario, error) {
			p := followsun.DefaultServingParams()
			p.Seed = seed
			return followsun.NewServing(p, cfg)
		},
		"wireless": func(cfg serve.Config, seed int64) (*serve.Scenario, error) {
			p := wireless.DefaultServingParams()
			p.Seed = seed
			return wireless.NewServing(p, cfg)
		},
	}
	for _, name := range []string{"acloud", "followsun", "wireless"} {
		build := builders[name]
		b.Run(name, func(b *testing.B) {
			const perIter = 200
			cfg := serve.Config{QueueCap: 512, BatchMax: 64}
			sc, err := build(cfg, 1)
			if err != nil {
				b.Fatal(err)
			}
			rng := rand.New(rand.NewSource(7))
			// Seed burst + warmup tick outside the timed region.
			for _, ev := range sc.Gen(rng, 20) {
				if err := sc.Server.Offer(ev); err != nil {
					b.Fatal(err)
				}
			}
			if _, err := sc.Server.Drain(); err != nil {
				b.Fatal(err)
			}
			events := 0
			start := time.Now()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for _, ev := range sc.Gen(rng, perIter) {
					events++
					for {
						err := sc.Server.Offer(ev)
						if err == nil {
							break
						}
						if err != serve.ErrQueueFull {
							b.Fatal(err)
						}
						if _, err := sc.Server.TickOnce(); err != nil {
							b.Fatal(err)
						}
					}
					if sc.Server.QueueDepth() >= cfg.BatchMax {
						if _, err := sc.Server.TickOnce(); err != nil {
							b.Fatal(err)
						}
					}
				}
				if _, err := sc.Server.Drain(); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			wall := time.Since(start)
			st := sc.Server.StatsSnapshot()
			b.ReportMetric(float64(events)/wall.Seconds(), "churn-events/sec")
			b.ReportMetric(float64(st.LatencyPercentile(0.50).Microseconds())/1000, "p50-ms")
			b.ReportMetric(float64(st.LatencyPercentile(0.99).Microseconds())/1000, "p99-ms")
			b.ReportMetric(float64(st.DegradedTicks), "degraded-ticks")
		})
	}
}
