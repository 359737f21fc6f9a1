package core_test

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/analysis"
	"repro/internal/colog"
	"repro/internal/core"
	"repro/internal/policies"
	"repro/internal/programs"
)

// plansGolden records every delta plan and every ground plan of the
// bundled programs (see planCorpus), one line per plan: the rule, the
// trigger for a delta plan, and each step's kind with its join predicate
// and bound columns. Ground plans were recorded over empty tables. A
// deliberate change to a plan replaces the affected lines with the "got"
// lines the test prints.
const plansGolden = "testdata/plans.golden"

// planProgram is one bundled program with the keys and events it runs
// under.
type planProgram struct {
	name   string
	src    string
	params map[string]colog.Value
	keys   map[string][]int
	events []string
}

// joinsSrc is a regular program whose delta plans tie: after each trigger,
// the remaining joins bind the same number of columns.
const joinsSrc = `
r1 path3(A,D) <- e(A,B), e(B,C), e(C,D).
r2 tri(A,B,C) <- e(A,B), e(B,C), e(C,A), A!=B.
`

// planCorpus lists the bundled programs: the paper's Table 2 protocols,
// ACloud with its migration cap, the one-hop wireless variants, the three
// policies and the example corpus, plus joinsSrc.
func planCorpus(t *testing.T) []planProgram {
	t.Helper()
	var out []planProgram
	entries := append(programs.Table2Entries(),
		programs.ACloud(true, 3),
		programs.WirelessCentralized(false, 5),
		programs.WirelessDistributed(5, false))
	for _, e := range entries {
		out = append(out, planProgram{e.Name, e.Source, e.Config.Params, e.Config.Keys, e.Config.Events})
	}
	for _, p := range []struct{ name, src string }{
		{"routing", policies.RoutingSrc},
		{"scheduling", policies.SchedulingSrc},
		{"placement", policies.PlacementSrc},
		{"joins", joinsSrc},
	} {
		out = append(out, planProgram{name: p.name, src: p.src})
	}
	files, err := filepath.Glob(filepath.Join(corpusDir, "*.colog"))
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range files {
		src, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		name := filepath.Base(f)
		out = append(out, planProgram{name: name, src: string(src), keys: corpusKeys[name]})
	}
	return out
}

// planCorpusText renders the plans of every corpus program.
func planCorpusText(t *testing.T) string {
	t.Helper()
	var b strings.Builder
	for _, pp := range planCorpus(t) {
		prog, err := colog.Parse(pp.src)
		if err != nil {
			t.Fatalf("%s: parse: %v", pp.name, err)
		}
		res, err := analysis.Analyze(prog, pp.params)
		if err != nil {
			t.Fatalf("%s: analyze: %v", pp.name, err)
		}
		p, err := core.Compile(res, pp.keys, pp.events)
		if err != nil {
			t.Fatalf("%s: compile: %v", pp.name, err)
		}
		b.WriteString("== " + pp.name + "\n" + core.PlanText(p))
	}
	return b.String()
}

// TestPlansMatchRecorded pins the order and access paths of every plan
// the planner builds for the bundled programs to plansGolden. The delta
// plans and the ground plans of these programs were recorded from the
// planners planBody replaced.
func TestPlansMatchRecorded(t *testing.T) {
	want, err := os.ReadFile(plansGolden)
	if err != nil {
		t.Fatal(err)
	}
	got := planCorpusText(t)
	if got == string(want) {
		return
	}
	wantLines, gotLines := strings.Split(string(want), "\n"), strings.Split(got, "\n")
	for i := 0; i < len(wantLines) || i < len(gotLines); i++ {
		var w, g string
		if i < len(wantLines) {
			w = wantLines[i]
		}
		if i < len(gotLines) {
			g = gotLines[i]
		}
		if w != g {
			t.Errorf("line %d:\n got: %s\nwant: %s", i+1, g, w)
		}
	}
}
