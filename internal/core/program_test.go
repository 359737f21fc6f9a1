package core

import (
	"strings"
	"testing"
)

// TestProgramSharedReadOnly: nodes built from one Program share its plans
// and slot layouts, but each keeps its own binding frame and index memo,
// and each memo points into that node's own table index.
func TestProgramSharedReadOnly(t *testing.T) {
	res := mustAnalyze(t, `r1 pair(V,W) <- vm(V,H), vm2(W,H).`, nil)
	prog, err := Compile(res, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	var nodes []*Node
	for _, addr := range []string{"a", "b"} {
		n, err := prog.NewNode(addr, Config{}, nil)
		if err != nil {
			t.Fatal(err)
		}
		for _, h := range []string{"h1", "h2"} {
			if err := n.Insert("vm2", sval("w-"+h), sval(h)); err != nil {
				t.Fatal(err)
			}
			if err := n.Insert("vm", sval("v-"+h), sval(h)); err != nil {
				t.Fatal(err)
			}
		}
		if got := rows(n, "pair"); got != 2 {
			t.Fatalf("node %s derived %d pair rows, want 2", addr, got)
		}
		nodes = append(nodes, n)
	}
	a, b := nodes[0], nodes[1]
	if a.prog != prog || b.prog != prog {
		t.Fatal("nodes do not share the Program they were built from")
	}
	p := prog.plans["vm"][0]
	join := -1
	for i := range p.steps {
		if p.steps[i].kind == stepJoin && len(p.steps[i].boundCols) > 0 {
			join = i
		}
	}
	if join < 0 {
		t.Fatal("plan for trigger vm has no probing join")
	}
	ra, rb := &a.runs[p.id], &b.runs[p.id]
	if ra.frame == nil || rb.frame == nil {
		t.Fatal("plan fired without allocating the node's frame")
	}
	if ra.frame == rb.frame {
		t.Fatal("two nodes share one binding frame")
	}
	if &ra.idx[0] == &rb.idx[0] {
		t.Fatal("two nodes share one index memo")
	}
	for _, n := range nodes {
		memo := n.runs[p.id].idx[join]
		own := n.tables["vm2"].indexes[p.steps[join].idxKey]
		if memo.ix == nil || memo.ix != own {
			t.Fatalf("node %s: index memo does not point at its own vm2 index", n.Addr)
		}
	}
	if ra.frame.slots != prog.slots[p.ruleIdx] {
		t.Fatal("frame does not use the Program's slot layout")
	}
}

// TestProgramRejectsConfigMismatch: Keys and Events are compiled in, so a
// node configured with different ones must fail to build instead of
// silently running under the compiled ones.
func TestProgramRejectsConfigMismatch(t *testing.T) {
	res := mustAnalyze(t, `
r1 b(X,Y) <- a(X,Y).
r2 c(X) <- ev(X).
`, nil)
	keys := map[string][]int{"a": {0}}
	prog, err := Compile(res, keys, []string{"ev"})
	if err != nil {
		t.Fatal(err)
	}
	same := Config{Keys: map[string][]int{"a": {0}}, Events: []string{"ev", InvokeSolverPred, "ev"}}
	if _, err := prog.NewNode("same", same, nil); err != nil {
		t.Fatalf("equal Keys and Events rejected: %v", err)
	}
	cases := []struct {
		name string
		cfg  Config
		want string
	}{
		{"keys missing", Config{Events: []string{"ev"}}, "Config.Keys"},
		{"key columns differ", Config{Keys: map[string][]int{"a": {1}}, Events: []string{"ev"}}, "Config.Keys"},
		{"extra key", Config{Keys: map[string][]int{"a": {0}, "b": {0}}, Events: []string{"ev"}}, "Config.Keys"},
		{"events missing", Config{Keys: keys}, "Config.Events"},
		{"extra event", Config{Keys: keys, Events: []string{"ev", "a"}}, "Config.Events"},
	}
	for _, tc := range cases {
		n, err := prog.NewNode(tc.name, tc.cfg, nil)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: NewNode = %v, %v; want an error naming %s", tc.name, n, err, tc.want)
		}
		if prog.Accepts(tc.cfg) {
			t.Errorf("%s: Accepts = true", tc.name)
		}
	}
}
