package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"time"
)

// benchmarkFile is the part of BENCHMARK.json the suite reads.
type benchmarkFile struct {
	RunSeconds int `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func readBenchmarkFile(benchDir string) (*benchmarkFile, error) {
	data, err := os.ReadFile(filepath.Join(benchDir, "..", "BENCHMARK.json"))
	if err != nil {
		return nil, err
	}
	var bf benchmarkFile
	if err := json.Unmarshal(data, &bf); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	return &bf, nil
}

// suite runs workloads in child processes of this same binary, so each has
// its own address space and its own resident set.
type suite struct {
	benchDir string
	seed     int64
	seconds  float64
	traced   bool
}

// runChild runs one workload in a child process, copies what it prints to
// out, and returns the result object from its last line.
func (s suite) runChild(out io.Writer, workload string, seed int64) (*result, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	trace := "0"
	if s.traced {
		trace = "1"
	}
	cmd := exec.Command(exe, "-workload", workload, "-seed", strconv.FormatInt(seed, 10),
		"-seconds", strconv.FormatFloat(s.seconds, 'g', -1, 64), "-trace", trace, "-dir", s.benchDir)
	var stdout bytes.Buffer
	cmd.Stdout = io.MultiWriter(out, &stdout)
	cmd.Stderr = os.Stderr
	runErr := cmd.Run()
	var last string
	sc := bufio.NewScanner(&stdout)
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		if line := strings.TrimSpace(sc.Text()); line != "" {
			last = line
		}
	}
	var res result
	if err := json.Unmarshal([]byte(last), &res); err != nil {
		if runErr != nil {
			return nil, fmt.Errorf("%s: %w", workload, runErr)
		}
		return nil, fmt.Errorf("%s: last line is not a result object: %w", workload, err)
	}
	if runErr != nil || !res.Correct || res.Failed > 0 {
		return &res, fmt.Errorf("%s: correct=%v failed=%d of %d (%v)", workload, res.Correct, res.Failed, res.Attempted, runErr)
	}
	return &res, nil
}

// runAll runs every workload once and returns the results by workload name.
func (s suite) runAll(out io.Writer) (map[string]*result, error) {
	results := map[string]*result{}
	for _, w := range workloads {
		res, err := s.runChild(out, w.name, s.seed)
		if err != nil {
			return nil, err
		}
		results[w.name] = res
	}
	return results, nil
}

// worse is by how much b is worse than a, as a share of a.
func worse(a, b float64, better string) float64 {
	if a == 0 {
		return 0
	}
	if better == "higher" {
		return (a - b) / math.Abs(a)
	}
	return (b - a) / math.Abs(a)
}

// runAA runs the whole benchmark twice back to back on the same build. The
// two sets must agree within each end-to-end metric's own bound in both
// directions; the table is appended to AA.md as the evidence.
func (s suite) runAA() error {
	bf, err := readBenchmarkFile(s.benchDir)
	if err != nil {
		return err
	}
	first, err := s.runAll(io.Discard)
	if err != nil {
		return err
	}
	second, err := s.runAll(io.Discard)
	if err != nil {
		return err
	}
	var b strings.Builder
	fmt.Fprintf(&b, "\n## A/A %s, seed %d, %g s per run\n\n", time.Now().UTC().Format("2006-01-02 15:04Z"), s.seed, s.seconds)
	fmt.Fprintf(&b, "%s\n\n", readEnvironment(s.benchDir, s.seed, s.seconds, ms(calibrate())))
	fmt.Fprintf(&b, "| workload | metric | unit | first | second | difference | bound | |\n|---|---|---|---:|---:|---:|---:|---|\n")
	violations := 0
	for _, w := range workloads {
		for _, e := range bf.EndToEnd {
			a, c := first[w.name].Metrics[e.Name].Value, second[w.name].Metrics[e.Name].Value
			diff := math.Max(worse(a, c, e.Better), worse(c, a, e.Better))
			verdict := "ok"
			if diff > e.Bound {
				verdict = "VIOLATION"
				violations++
			}
			fmt.Fprintf(&b, "| %s | %s | %s | %.6g | %.6g | %.2f%% | %.0f%% | %s |\n",
				w.name, e.Name, e.Unit, a, c, 100*diff, 100*e.Bound, verdict)
		}
	}
	fmt.Print(b.String())
	if err := appendFile(filepath.Join(s.benchDir, "AA.md"), b.String()); err != nil {
		return err
	}
	if violations > 0 {
		return fmt.Errorf("A/A: %d of %d values differ by more than their bound", violations, len(workloads)*len(bf.EndToEnd))
	}
	return nil
}

// quartiles returns the first and third quartile as Python's
// statistics.quantiles(v, n=4) computes them (the exclusive method).
func quartiles(v []float64) (q1, q3 float64) {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	at := func(i int) float64 {
		j := i * (n + 1) / 4
		delta := i*(n+1) - j*4
		if j < 1 {
			j, delta = 1, 0
		}
		if j > n-1 {
			j, delta = n-1, 4
		}
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return at(1), at(3)
}

// runSpread runs every workload on n seeds, starting at the suite's seed,
// and reports each end-to-end metric's interquartile distance as a share of
// its median: the steadiness the benchmark must show before its bounds mean
// anything.
func (s suite) runSpread(n int) error {
	if n < 2 {
		return fmt.Errorf("-spread needs at least 2 seeds")
	}
	bf, err := readBenchmarkFile(s.benchDir)
	if err != nil {
		return err
	}
	var b strings.Builder
	fmt.Fprintf(&b, "\n## Spread over %d seeds from %d, %s, %g s per run\n\n", n, s.seed, time.Now().UTC().Format("2006-01-02 15:04Z"), s.seconds)
	fmt.Fprintf(&b, "%s\n\n", readEnvironment(s.benchDir, s.seed, s.seconds, ms(calibrate())))
	fmt.Fprintf(&b, "| workload | metric | unit | median | q1 | q3 | (q3-q1)/median | bound | |\n|---|---|---|---:|---:|---:|---:|---:|---|\n")
	wide := 0
	for _, w := range workloads {
		values := map[string][]float64{}
		for i := 0; i < n; i++ {
			res, err := s.runChild(io.Discard, w.name, s.seed+int64(i))
			if err != nil {
				return err
			}
			for name, mv := range res.Metrics {
				values[name] = append(values[name], mv.Value)
			}
		}
		for _, e := range bf.EndToEnd {
			v := values[e.Name]
			q1, q3 := quartiles(v)
			med := median(v)
			rel := ratio(q3-q1, med)
			verdict := "ok"
			switch {
			case rel > e.Bound && e.Name != "setup_s":
				verdict = "TOO WIDE"
				wide++
			case rel > e.Bound/3:
				verdict = "above a third of the bound"
			}
			fmt.Fprintf(&b, "| %s | %s | %s | %.6g | %.6g | %.6g | %.2f%% | %.0f%% | %s |\n",
				w.name, e.Name, e.Unit, med, q1, q3, 100*rel, 100*e.Bound, verdict)
		}
	}
	fmt.Print(b.String())
	if err := appendFile(filepath.Join(s.benchDir, "AA.md"), b.String()); err != nil {
		return err
	}
	if wide > 0 {
		return fmt.Errorf("spread: %d metrics vary by more than their bound", wide)
	}
	return nil
}

func appendFile(path, text string) error {
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.WriteString(text); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
