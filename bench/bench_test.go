package main

import (
	"bytes"
	"regexp"
	"strings"
	"testing"
)

// exactMetrics are the per-layer counts that must repeat bit for bit when a
// workload runs twice on the same seed and the same number of operations.
var exactMetrics = []string{
	"serve.coalesced_ratio", "serve.admitted_per_tick", "serve.wire_bytes_per_event",
	"core.ground_incremental_ratio", "core.consts_patched_per_tick", "core.decision_deltas_per_tick",
	"core.deltas_per_op", "core.tuples_sent_per_op",
	"solver.nodes_per_tick", "solver.failures_per_tick", "solver.vars", "solver.cons", "solver.budget_hit_ratio",
	"store.log_records_per_op", "store.log_bytes_per_op", "store.write_amp",
	"transport.msgs_per_op", "transport.bytes_per_op", "transport.per_node_kbps_virtual",
	"cluster.agg_msgs_per_epoch", "cluster.agg_bytes_per_epoch", "cluster.rounds_to_converge", "cluster.virtual_converge_s",
}

// smoke runs one workload at a few percent of its real size for a fixed
// number of operations (seconds = 0 stops at minSamples exactly).
func smoke(t *testing.T, spec workloadSpec, seed int64, traced bool) (*result, string) {
	t.Helper()
	var out bytes.Buffer
	res, err := runWorkload(runConfig{
		spec: spec, seed: seed, seconds: 0, traced: traced,
		benchDir: t.TempDir(), setups: 1, minSamples: 24, scale: 0.05,
	}, &out)
	if err != nil {
		t.Fatalf("%s: %v\n%s", spec.name, err, out.String())
	}
	if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
		t.Fatalf("%s: correct=%v failed=%d attempted=%d\n%s", spec.name, res.Correct, res.Failed, res.Attempted, out.String())
	}
	return res, out.String()
}

// TestSmoke checks the benchmark against BENCHMARK.json: every workload
// prints every end-to-end metric untraced and every per-layer metric traced,
// each with its unit; names are well formed; nothing fails; and the exact
// counts repeat across two runs and move with the seed.
func TestSmoke(t *testing.T) {
	bf, err := readBenchmarkFile(".")
	if err != nil {
		t.Fatal(err)
	}
	nameRE := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	if len(bf.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the program has %d", len(bf.Workloads), len(workloads))
	}
	if len(bf.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json lists %d per-layer metrics, the program has %d", len(bf.PerLayer), len(perLayer))
	}
	for i, w := range bf.Workloads {
		if workloads[i].name != w.Name {
			t.Errorf("workload %d is %q in BENCHMARK.json and %q in the program", i, w.Name, workloads[i].name)
		}
	}

	for _, spec := range workloads {
		spec := spec
		t.Run(spec.name, func(t *testing.T) {
			t.Parallel()
			res, out := smoke(t, spec, 1, false)
			if len(res.Metrics) != len(bf.EndToEnd) {
				t.Errorf("measured run reports %d metrics, want %d", len(res.Metrics), len(bf.EndToEnd))
			}
			for _, e := range bf.EndToEnd {
				got, ok := res.Metrics[e.Name]
				if !ok || got.Unit != e.Unit || !nameRE.MatchString(e.Name) {
					t.Errorf("end-to-end metric %q: reported=%v unit %q, want unit %q", e.Name, ok, got.Unit, e.Unit)
				}
				if got.Value <= 0 {
					t.Errorf("end-to-end metric %q = %v, want > 0", e.Name, got.Value)
				}
				if !printed(out, e.Name, e.Unit) {
					t.Errorf("end-to-end metric %q is not printed with unit %q:\n%s", e.Name, e.Unit, out)
				}
			}

			first, out := smoke(t, spec, 1, true)
			if len(first.Metrics) != len(bf.PerLayer) {
				t.Errorf("traced run reports %d metrics, want %d", len(first.Metrics), len(bf.PerLayer))
			}
			for _, pl := range bf.PerLayer {
				got, ok := first.Metrics[pl.Name]
				if !ok || got.Unit != pl.Unit || !nameRE.MatchString(pl.Name) {
					t.Errorf("per-layer metric %q: reported=%v unit %q, want unit %q", pl.Name, ok, got.Unit, pl.Unit)
				}
				if !printed(out, pl.Name, pl.Unit) {
					t.Errorf("per-layer metric %q is not printed with unit %q", pl.Name, pl.Unit)
				}
			}
			if !strings.Contains(out, "GOMAXPROCS=2") || !strings.Contains(out, "seed=1") || !strings.Contains(out, "wal_fs=") {
				t.Errorf("environment header is missing from the output:\n%s", out)
			}

			again, _ := smoke(t, spec, 1, true)
			other, _ := smoke(t, spec, 2, true)
			moved := false
			for _, name := range exactMetrics {
				if first.Metrics[name].Value != again.Metrics[name].Value {
					t.Errorf("exact metric %q does not repeat: %v then %v", name, first.Metrics[name].Value, again.Metrics[name].Value)
				}
				moved = moved || first.Metrics[name].Value != other.Metrics[name].Value
			}
			if !moved {
				t.Errorf("no exact metric differs between seed 1 and seed 2: the seed does not reach the inputs")
			}
		})
	}
}

// printed reports whether out has a metric line "name value unit".
func printed(out, name, unit string) bool {
	for _, line := range strings.Split(out, "\n") {
		f := strings.Fields(line)
		if len(f) == 3 && f[0] == name && f[2] == unit {
			return true
		}
	}
	return false
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles([1, 2, 4, 7, 11, 16, 22, 29, 37, 46], n=4) == [3.5, 13.5, 31.0]
	q1, q3 := quartiles([]float64{46, 1, 2, 4, 7, 11, 16, 22, 29, 37})
	if q1 != 3.5 || q3 != 31.0 {
		t.Errorf("quartiles = %v, %v; want 3.5, 31", q1, q3)
	}
}
