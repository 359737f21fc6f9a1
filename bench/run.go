package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	"repro/internal/quantile"
)

// workload is one set of inputs the benchmark runs. Every value is used for
// one set-up, one measured phase and one verification.
type workload interface {
	// setup builds the system from the seed and runs the warm-up. traced
	// set-ups also build whatever the traced run drives beside the system.
	setup(seed int64, dir string, traced bool) error
	// op makes one decision and reports the operations it carried. With a
	// tracer it records the operation's spans under opID.
	op(t *tracer, opID int) (sample, error)
	// failedOps is the number of failed operations so far.
	failedOps() int
	// verify checks the run's outputs against the reference.
	verify() error
	// layers adds the per-layer metrics this workload exercises.
	layers(m *metricSet, run, base *phase) error
	close() error
}

type workloadSpec struct {
	name string
	why  string
	// unit names the operation ops_per_s counts and the decision the latency
	// metrics time.
	op, decision string
	// new builds the workload; scale shrinks its warm-up and its reference
	// checks (1 in a real run, a few percent in the smoke test).
	new func(scale float64) workload
}

var workloads = []workloadSpec{
	{
		name: "acloud-churn",
		why:  "ACloud COP served from memory: grounder and solver do the work; store, transport and cluster do none",
		op:   "churn event offered", decision: "first Offer of a 32-event burst to TickOnce returning the decision delta",
		new: func(scale float64) workload {
			return &acloudWorkload{name: "acloud-churn", shape: churnShape.scaled(scale)}
		},
	},
	{
		name: "acloud-durable",
		why:  "small ACloud COP on the disk store with fsync: WAL appends dominate the tick; the workload a group commit moves",
		op:   "churn event offered", decision: "first Offer of a 32-event burst to TickOnce returning the decision delta",
		new: func(scale float64) workload {
			return &acloudWorkload{name: "acloud-durable", shape: durableShape.scaled(scale)}
		},
	},
	{
		name: "acloud-restart",
		why:  "ReplayNode over a 4000-record log: reads the store and the WAL codec that acloud-durable writes",
		op:   "restart from the log", decision: "one core.ReplayNode",
		new: func(scale float64) workload { return &restartWorkload{scale: scale} },
	},
	{
		name: "followsun-ring",
		why:  "40-center Follow-the-Sun negotiation on the cluster runtime: spawn, epochs, barrier, wire codec; little search, no store",
		op:   "per-link negotiation", decision: "one whole negotiation to convergence (RunCluster)",
		new: func(scale float64) workload { return &ringWorkload{scale: scale} },
	},
}

func findWorkload(name string) (workloadSpec, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workloadSpec{}, false
}

// runConfig is one invocation's arguments.
type runConfig struct {
	spec     workloadSpec
	seed     int64
	seconds  float64
	traced   bool
	benchDir string
	// setups is how many times the set-up runs; setup_s is their median.
	setups int
	// minSamples keeps a slow host measuring until the percentiles have
	// enough samples behind them.
	minSamples int
	// scale is 1 in a real run; the smoke test shrinks warm-up and checks.
	scale float64
}

// phase is one measured phase: the samples of a closed loop with one client.
type phase struct {
	start    time.Time
	startCPU float64 // the process's CPU seconds at start
	samples  []sample
	cpu      float64 // user+system seconds the phase used
	goBefore goStats
	goAfter  goStats
}

func (p *phase) ops() int {
	n := 0
	for _, s := range p.samples {
		n += s.ops
	}
	return n
}

func (p *phase) wall() time.Duration {
	return p.samples[len(p.samples)-1].finished.Sub(p.start)
}

// busyRate is operations per second of time spent on the system under test
// alone, leaving out what a traced run does beside it.
func (p *phase) busyRate() float64 {
	var busy time.Duration
	for _, s := range p.samples {
		busy += s.busy
	}
	return ratio(float64(p.ops()), busy.Seconds())
}

func (p *phase) latencies() []time.Duration {
	lat := make([]time.Duration, len(p.samples))
	for i, s := range p.samples {
		lat[i] = s.latency
	}
	sort.Slice(lat, func(i, j int) bool { return lat[i] < lat[j] })
	return lat
}

// measure runs the closed loop for the given time: one client, the next
// operation only after the previous one returned.
func measure(w workload, seconds float64, minSamples int, t *tracer) (*phase, error) {
	runtime.GC()
	p := &phase{goBefore: readGoStats()}
	p.startCPU = cpuSeconds()
	p.start = time.Now()
	deadline := p.start.Add(time.Duration(seconds * float64(time.Second)))
	for opID := 1; ; opID++ {
		s, err := w.op(t, opID)
		if err != nil {
			return nil, err
		}
		s.cpu = cpuSeconds()
		s.rssMB = residentMB()
		p.samples = append(p.samples, s)
		if len(p.samples) >= minSamples && !s.finished.Before(deadline) {
			break
		}
	}
	p.cpu = cpuSeconds() - p.startCPU
	p.goAfter = readGoStats()
	return p, nil
}

// result is the object printed as the last line of standard output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func (r *result) set(m *metricSet) {
	r.Metrics = map[string]metricValue{}
	for _, x := range m.list {
		r.Metrics[x.Name] = metricValue{x.Value, x.Unit}
	}
}

// runWorkload runs one workload once and prints its result. The measured
// run has tracing off and reports the end-to-end metrics; the traced run
// reports the per-layer metrics and writes the span file.
func runWorkload(rc runConfig, out io.Writer) (*result, error) {
	runtime.GOMAXPROCS(2)
	calibBefore := calibrate()
	dir, err := workDir(rc.benchDir)
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	env := readEnvironment(dir, rc.seed, rc.seconds, ms(calibBefore))
	fmt.Fprintf(out, "# %s: %s\n# %s\n", rc.spec.name, rc.spec.why, env)
	fmt.Fprintf(out, "# operation = %s; decision = %s; closed loop, 1 client\n", rc.spec.op, rc.spec.decision)

	var m metricSet
	var res *result
	if rc.traced {
		res, err = runTraced(rc, dir, env, &m, out)
	} else {
		res, err = runMeasured(rc, dir, &m, out)
	}
	if err != nil {
		return nil, err
	}
	runtime.GC() // let the collector finish before the yardstick runs again
	calibAfter := calibrate()
	drift := 100 * (ms(calibAfter) - ms(calibBefore)) / ms(calibBefore)
	if rc.traced {
		m.add("host.calib_ms", ms(calibBefore), "ms")
		m.add("host.calib_drift_pct", drift, "%")
		fillPerLayer(&m)
	}
	if drift > 10 || drift < -10 {
		fmt.Fprintf(out, "# WARNING host.calib_drift_pct=%.1f: the host's speed changed during the run\n", drift)
	}
	m.print(out)
	res.set(&m)
	return res, nil
}

// setUp runs the workload's set-up n times on fresh state and returns the
// last instance with the median set-up time.
func setUp(rc runConfig, dir string, traced bool, n int) (workload, time.Duration, error) {
	var times []time.Duration
	for i := 0; ; i++ {
		sub := filepath.Join(dir, fmt.Sprintf("setup%d-%v", i, traced))
		if err := os.MkdirAll(sub, 0o755); err != nil {
			return nil, 0, err
		}
		w := rc.spec.new(rc.scale)
		start := time.Now()
		if err := w.setup(rc.seed, sub, traced); err != nil {
			return nil, 0, fmt.Errorf("%s: set-up: %w", rc.spec.name, err)
		}
		times = append(times, time.Since(start))
		if i == n-1 {
			return w, medianDuration(times), nil
		}
		if err := w.close(); err != nil {
			return nil, 0, err
		}
		if err := os.RemoveAll(sub); err != nil {
			return nil, 0, err
		}
	}
}

func runMeasured(rc runConfig, dir string, m *metricSet, out io.Writer) (*result, error) {
	w, setup, err := setUp(rc, dir, false, rc.setups)
	if err != nil {
		return nil, err
	}
	defer w.close()
	p, err := measure(w, rc.seconds, rc.minSamples, nil)
	if err != nil {
		return nil, err
	}
	lat := p.latencies()
	ops := p.ops()
	seg := measureSegments(p.start, p.startCPU, p.samples)
	m.add("setup_s", setup.Seconds(), "s")
	m.add("ops_per_s", seg.opsPerS, "1/s")
	m.add("decision_p50_ms", seg.p50ms, "ms")
	m.add("decision_p90_ms", seg.p90ms, "ms")
	m.add("cpu_s_per_kop", seg.cpuPerKop, "s")
	m.add("peak_rss_mb", seg.peakRSSMB, "MB")
	fmt.Fprintf(out, "# measured %.2f s, %d operations, %d latency samples in %d segments; over all samples p50=%.4f p90=%.4f decision_p99_ms_info=%.4f\n",
		p.wall().Seconds(), ops, len(lat), segments, ms(quantile.SortedDurations(lat, 0.50)), ms(quantile.SortedDurations(lat, 0.90)), ms(quantile.SortedDurations(lat, 0.99)))

	fmt.Fprintf(out, "# ops_per_s by segment: %.6g\n", seg.rates)
	fmt.Fprintf(out, "# peak_rss_mb by segment: %.6g\n", seg.peaks)
	res := &result{Correct: true, Attempted: ops, Failed: w.failedOps()}
	if err := w.verify(); err != nil {
		res.Correct = false
		fmt.Fprintf(out, "# INCORRECT: %v\n", err)
	}
	return res, nil
}

// runTraced measures a short untraced baseline, then the traced phase on a
// fresh instance. The baseline is what trace.overhead_pct compares with.
func runTraced(rc runConfig, dir string, env environment, m *metricSet, out io.Writer) (*result, error) {
	base, _, err := setUp(rc, dir, false, 1)
	if err != nil {
		return nil, err
	}
	basePhase, err := measure(base, rc.seconds*0.3, rc.minSamples/4, nil)
	if err != nil {
		return nil, err
	}
	res := &result{Correct: true}
	check := func(w workload) {
		if err := w.verify(); err != nil {
			res.Correct = false
			fmt.Fprintf(out, "# INCORRECT: %v\n", err)
		}
	}
	check(base)
	if err := base.close(); err != nil {
		return nil, err
	}

	w, _, err := setUp(rc, dir, true, 1)
	if err != nil {
		return nil, err
	}
	defer w.close()
	t := newTracer()
	p, err := measure(w, rc.seconds*0.7, rc.minSamples/2, t)
	if err != nil {
		return nil, err
	}
	check(w)
	res.Attempted = p.ops() + basePhase.ops()
	res.Failed = w.failedOps() + base.failedOps()

	if err := w.layers(m, p, basePhase); err != nil {
		return nil, err
	}
	ops := float64(p.ops())
	alloc := float64(p.goAfter.totalAlloc-p.goBefore.totalAlloc) / (1 << 20)
	m.add("go.alloc_mb_per_kop", 1000*ratio(alloc, ops), "MB")
	m.add("go.gc_cpu_fraction", ratio(p.goAfter.gcCPU-p.goBefore.gcCPU, p.cpu), "ratio")
	m.add("go.gc_pause_total_ms", float64(p.goAfter.pauseNs-p.goBefore.pauseNs)/1e6, "ms")
	m.add("go.heap_live_mb_end", float64(p.goAfter.heapLive)/(1<<20), "MB")
	m.add("trace.overhead_pct", traceOverheadPct(basePhase, p), "%")
	m.add("trace.self_sum_ratio", selfSumRatio(t), "ratio")

	path := filepath.Join(rc.benchDir, "out", rc.spec.name+".trace.json")
	if err := t.write(path, traceFile{Workload: rc.spec.name, Seed: rc.seed, Env: env}); err != nil {
		return nil, err
	}
	fmt.Fprintf(out, "# traced %.2f s, %d operations, %d spans -> %s\n", p.wall().Seconds(), p.ops(), len(t.spans), path)
	printLayerBudget(out, t)
	return res, nil
}

// traceOverheadPct compares the time the system under test took for the same
// operations with tracing off and on. Both phases start from the same seed,
// so operation i is the same work in each; the comparison covers the
// operations both completed.
func traceOverheadPct(base, traced *phase) float64 {
	n := min(len(base.samples), len(traced.samples))
	var off, on time.Duration
	for i := 0; i < n; i++ {
		off += base.samples[i].busy
		on += traced.samples[i].busy
	}
	return 100 * (ratio(float64(on), float64(off)) - 1)
}

// selfSumRatio is the sum of the self times of every span below the
// operation roots over the roots' summed wall: how much of an operation the
// layer spans account for.
func selfSumRatio(t *tracer) float64 {
	var root, below float64
	for _, lt := range t.selfTimes() {
		if lt.Name == "op" {
			root = lt.WallMs
		} else {
			below += lt.SelfMs
		}
	}
	return ratio(below, root)
}

// printLayerBudget prints the share of one operation each layer's spans
// take by self time: the layer-budget table of bench/README.md.
func printLayerBudget(out io.Writer, t *tracer) {
	layers := t.selfTimes()
	var root float64
	ops := 0
	for _, lt := range layers {
		if lt.Name == "op" {
			root, ops = lt.WallMs, lt.Count
		}
	}
	fmt.Fprintf(out, "# layer budget over %d operations (self time; share of operation wall)\n", ops)
	fmt.Fprintf(out, "# %-24s %10s %12s %8s\n", "span", "count", "self ms/op", "share")
	for _, lt := range layers {
		fmt.Fprintf(out, "# %-24s %10d %12.4f %7.1f%%\n", lt.Name, lt.Count, ratio(lt.SelfMs, float64(ops)), 100*ratio(lt.SelfMs, root))
	}
}

func printResult(res *result) error {
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}
