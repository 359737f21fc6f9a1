package programs

import (
	"crypto/sha256"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strconv"
	"testing"

	"repro/internal/analysis"
	"repro/internal/colog"
	"repro/internal/core"
	"repro/internal/solver"
)

// corpusDir holds the .colog files shipped for cmd/cologne.
const corpusDir = "../../examples/programs"

// TestCorpusPrograms runs every shipped .colog file end to end — the same
// path cmd/cologne takes — and checks each file's expected outcome.
func TestCorpusPrograms(t *testing.T) {
	expect := map[string]struct {
		status    solver.Status
		objective float64
	}{
		"coloring.colog":    {solver.StatusOptimal, 0},
		"knapsack.colog":    {solver.StatusOptimal, 19},
		"loadbalance.colog": {solver.StatusOptimal, 0}, // 40+10 vs 30+20
	}
	entries, err := os.ReadDir(corpusDir)
	if err != nil {
		t.Fatalf("corpus dir: %v", err)
	}
	found := 0
	for _, ent := range entries {
		if filepath.Ext(ent.Name()) != ".colog" {
			continue
		}
		want, known := expect[ent.Name()]
		if !known {
			t.Errorf("corpus file %s has no expected outcome registered", ent.Name())
			continue
		}
		found++
		t.Run(ent.Name(), func(t *testing.T) {
			sres := solveCorpus(t, ent.Name())
			if sres.Status != want.status {
				t.Fatalf("status = %v, want %v", sres.Status, want.status)
			}
			if math.Abs(sres.Objective-want.objective) > 1e-9 {
				t.Fatalf("objective = %v, want %v", sres.Objective, want.objective)
			}
		})
	}
	if found != len(expect) {
		t.Fatalf("corpus has %d known files, expected %d", found, len(expect))
	}
}

// corpusTrace fingerprints the solve of every corpus program. The lines
// were recorded from the legacy forward-checking search core before it was
// deleted; the event engine matched every one of them at that point.
var corpusTrace = map[string]string{
	"coloring.colog":    "status=optimal obj=0 nodes=21 failures=11 assign=8e615980cb21d600160d532cfe0f7914024ea60f3d21ceba501395516544a4cf",
	"knapsack.colog":    "status=optimal obj=19 nodes=18 failures=6 assign=5a37ac7c0ee417ea6314676bdc38aa81d1d2e24f0a1de9863248f8f93a982baa",
	"loadbalance.colog": "status=optimal obj=0 nodes=26 failures=2 assign=867588051edd1afd997e6dee78f55c7a46c5aa8b2839d3c2f4619d20c1b576f2",
}

// traceFingerprint renders a solve as status, objective, node and failure
// counts and a sha256 of the materialized assignments.
func traceFingerprint(r *core.SolveResult) string {
	h := sha256.New()
	for _, a := range r.Assignments {
		fmt.Fprintf(h, "%s%v\n", a.Pred, a.Vals)
	}
	return fmt.Sprintf("status=%s obj=%s nodes=%d failures=%d assign=%x",
		r.Status, strconv.FormatFloat(r.Objective, 'g', -1, 64), r.Stats.Nodes, r.Stats.Failures, h.Sum(nil))
}

// TestCorpusEngineEquivalence solves every corpus program and requires the
// status, objective, search trace and assignments recorded from the legacy
// search core in corpusTrace — the programs-suite leg of the recorded-trace
// guarantee.
func TestCorpusEngineEquivalence(t *testing.T) {
	entries, err := os.ReadDir(corpusDir)
	if err != nil {
		t.Fatalf("corpus dir: %v", err)
	}
	for _, ent := range entries {
		if filepath.Ext(ent.Name()) != ".colog" {
			continue
		}
		t.Run(ent.Name(), func(t *testing.T) {
			want, ok := corpusTrace[ent.Name()]
			if !ok {
				t.Fatal("no recorded trace for this program")
			}
			got := traceFingerprint(solveCorpus(t, ent.Name()))
			if got != want {
				t.Fatalf("trace diverged from the recorded legacy trace:\n got  %s\n want %s", got, want)
			}
		})
	}
}

// solveCorpus parses, analyzes and solves one corpus program on a fresh
// propagating node.
func solveCorpus(t *testing.T, name string) *core.SolveResult {
	t.Helper()
	src, err := os.ReadFile(filepath.Join(corpusDir, name))
	if err != nil {
		t.Fatal(err)
	}
	prog, err := colog.Parse(string(src))
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	res, err := analysis.Analyze(prog, nil)
	if err != nil {
		t.Fatalf("analyze: %v", err)
	}
	node, err := core.NewNode("local", res, core.Config{SolverPropagate: true}, nil)
	if err != nil {
		t.Fatalf("node: %v", err)
	}
	sres, err := node.Solve(core.SolveOptions{})
	if err != nil {
		t.Fatalf("solve: %v", err)
	}
	return sres
}
