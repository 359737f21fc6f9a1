// Command bench is the repository's benchmark: four workloads, each a closed
// loop with one client on GOMAXPROCS=2, measured for a fixed time on inputs
// generated from a seed, with outputs checked against a reference.
//
//	bash bench/run.sh --workload acloud-churn --seed 1 --seconds 20 --trace 0
//
// runs one workload and prints the end-to-end metrics (--trace 1: the
// per-layer metrics, and a span file under bench/out/). The last line of
// standard output is the result object BENCHMARK.json describes. Without
// --workload every workload runs in turn, each in a child process; -aa runs
// that twice and compares; -spread N runs N seeds per workload and prints
// each metric's interquartile spread. See README.md in this directory.
package main

import (
	"flag"
	"fmt"
	"os"
)

func main() {
	var (
		name    = flag.String("workload", "", "workload to run (default: all, each in a child process)")
		seed    = flag.Int64("seed", 1, "seed the inputs are generated from")
		seconds = flag.Float64("seconds", 20, "length of the measured phase")
		traced  = flag.Int("trace", 0, "1 = traced run printing the per-layer metrics, 0 = measured run")
		dir     = flag.String("dir", defaultBenchDir(), "the benchmark's own directory")
		aa      = flag.Bool("aa", false, "run the whole benchmark twice and compare the two sets of results")
		spread  = flag.Int("spread", 0, "run this many seeds per workload and report each metric's spread")
		golden  = flag.Bool("update-golden", false, "recompute golden.json for the seeds it holds")
	)
	flag.Parse()
	if flag.NArg() > 0 {
		fatal(fmt.Errorf("unexpected argument %q", flag.Arg(0)))
	}
	if *traced != 0 && *traced != 1 {
		fatal(fmt.Errorf("-trace takes 0 or 1"))
	}

	s := suite{benchDir: *dir, seed: *seed, seconds: *seconds, traced: *traced == 1}
	switch {
	case *golden:
		if err := updateGolden(*dir); err != nil {
			fatal(err)
		}
	case *name != "":
		spec, ok := findWorkload(*name)
		if !ok {
			fatal(fmt.Errorf("unknown workload %q", *name))
		}
		res, err := runWorkload(runConfig{
			spec: spec, seed: *seed, seconds: *seconds, traced: *traced == 1,
			benchDir: *dir, setups: 3, minSamples: 500, scale: 1,
		}, os.Stdout)
		if err != nil {
			fatal(err)
		}
		if err := printResult(res); err != nil {
			fatal(err)
		}
		if !res.Correct || res.Failed > 0 {
			os.Exit(1)
		}
	case *aa:
		if err := s.runAA(); err != nil {
			fatal(err)
		}
	case *spread > 0:
		if err := s.runSpread(*spread); err != nil {
			fatal(err)
		}
	default:
		if _, err := s.runAll(os.Stdout); err != nil {
			fatal(err)
		}
	}
}

// defaultBenchDir finds the benchmark's directory from the two places the
// program is started in: the repository root and the directory itself.
func defaultBenchDir() string {
	if _, err := os.Stat("bench/golden.json"); err == nil {
		return "bench"
	}
	return "."
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "bench:", err)
	os.Exit(1)
}
