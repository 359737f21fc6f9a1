package core

import (
	"testing"

	"repro/internal/colog"
	"repro/internal/store"
)

func asg(pred string, vals ...colog.Value) Assignment {
	return Assignment{Pred: pred, Vals: vals}
}

func deltaStr(d DecisionDelta) string {
	sign := "+"
	if d.Sign < 0 {
		sign = "-"
	}
	return sign + d.Tuple.String()
}

func TestDiffDecisions(t *testing.T) {
	a1 := asg("assign", colog.IntVal(1), colog.IntVal(10))
	a2 := asg("assign", colog.IntVal(2), colog.IntVal(20))
	a2b := asg("assign", colog.IntVal(2), colog.IntVal(21))
	b1 := asg("route", colog.StringVal("x"), colog.IntVal(0))

	cases := []struct {
		name       string
		prev, next []Assignment
		want       []string
	}{
		{"empty", nil, nil, nil},
		{"all inserts", nil, []Assignment{a1, a2}, []string{
			"+" + (Tuple{a1.Pred, a1.Vals}).String(),
			"+" + (Tuple{a2.Pred, a2.Vals}).String(),
		}},
		{"all retracts", []Assignment{a1, a2}, nil, []string{
			"-" + (Tuple{a1.Pred, a1.Vals}).String(),
			"-" + (Tuple{a2.Pred, a2.Vals}).String(),
		}},
		{"unchanged", []Assignment{a1, a2, b1}, []Assignment{b1, a2, a1}, nil},
		{"one moved", []Assignment{a1, a2}, []Assignment{a1, a2b}, []string{
			"-" + (Tuple{a2.Pred, a2.Vals}).String(),
			"+" + (Tuple{a2b.Pred, a2b.Vals}).String(),
		}},
		{"multiset", []Assignment{a1, a1, a2}, []Assignment{a1, a2, a2}, []string{
			"-" + (Tuple{a1.Pred, a1.Vals}).String(),
			"+" + (Tuple{a2.Pred, a2.Vals}).String(),
		}},
	}
	for _, tc := range cases {
		got := DiffDecisions(tc.prev, tc.next)
		var gotStr []string
		for _, d := range got {
			gotStr = append(gotStr, deltaStr(d))
		}
		if len(gotStr) != len(tc.want) {
			t.Fatalf("%s: got %v want %v", tc.name, gotStr, tc.want)
		}
		for i := range gotStr {
			if gotStr[i] != tc.want[i] {
				t.Fatalf("%s: got %v want %v", tc.name, gotStr, tc.want)
			}
		}
	}
}

// TestDiffDecisionsRoundTrip checks that applying the deltas to the
// previous snapshot reproduces the next snapshot as a multiset.
func TestDiffDecisionsRoundTrip(t *testing.T) {
	prev := []Assignment{
		asg("assign", colog.IntVal(1), colog.IntVal(10)),
		asg("assign", colog.IntVal(2), colog.IntVal(20)),
		asg("assign", colog.IntVal(3), colog.IntVal(30)),
	}
	next := []Assignment{
		asg("assign", colog.IntVal(1), colog.IntVal(11)),
		asg("assign", colog.IntVal(2), colog.IntVal(20)),
		asg("assign", colog.IntVal(4), colog.IntVal(40)),
	}
	counts := map[string]int{}
	for _, a := range prev {
		counts[a.Pred+"\x00"+valsKey(a.Vals)]++
	}
	for _, d := range DiffDecisions(prev, next) {
		counts[d.Tuple.Pred+"\x00"+valsKey(d.Tuple.Vals)] += d.Sign
	}
	for _, a := range next {
		k := a.Pred + "\x00" + valsKey(a.Vals)
		counts[k]--
		if counts[k] < 0 {
			t.Fatalf("delta application under-produced %v", a)
		}
	}
	for k, c := range counts {
		if c != 0 {
			t.Fatalf("delta application left residue %q=%d", k, c)
		}
	}
}

// TestTickCommitFailureKeepsDecisions: a tick whose commit fails returns
// the error, publishes nothing, and leaves the published-decision baseline
// where the last committed tick put it.
func TestTickCommitFailureKeepsDecisions(t *testing.T) {
	st, err := store.Open("disk", t.TempDir(), true)
	if err != nil {
		t.Fatal(err)
	}
	n := newTestNode(t, `
goal minimize C in cost(C).
var assign(V,X) forall cand(V).
r1 cand(V) <- vm(V).
d1 cost(SUM<X>) <- assign(V,X).
`, Config{Storage: st})
	n.Insert("vm", sval("v1"))
	tr, err := n.Tick(TickOptions{})
	if err != nil || len(tr.Decisions) != 1 {
		t.Fatalf("first tick: %+v, %v", tr, err)
	}
	if err := st.Log().Close(); err != nil {
		t.Fatal(err)
	}
	n.Insert("vm", sval("v2"))
	if tr, err := n.Tick(TickOptions{}); err == nil || tr != nil {
		t.Fatalf("tick over a closed log: %+v, %v", tr, err)
	}
	if len(n.lastDecisions) != 1 {
		t.Fatalf("failed tick advanced the decision baseline to %v", n.lastDecisions)
	}
	if res, err := n.Solve(SolveOptions{}); err == nil || res != nil {
		t.Fatalf("solve over a closed log: %+v, %v", res, err)
	}
}

func TestWireValueHelpersRoundTrip(t *testing.T) {
	vals := []colog.Value{
		colog.IntVal(-42),
		colog.FloatVal(3.5),
		colog.StringVal("dc1"),
		colog.BoolVal(true),
	}
	buf := AppendWireString(nil, "vmRaw")
	buf, err := AppendWireValues(buf, vals)
	if err != nil {
		t.Fatalf("append: %v", err)
	}
	pred, rest, ok := ReadWireString(buf)
	if !ok || pred != "vmRaw" {
		t.Fatalf("string round trip: %q ok=%v", pred, ok)
	}
	got, rest, err := ReadWireValues(rest)
	if err != nil || len(rest) != 0 {
		t.Fatalf("values round trip: %v rest=%d", err, len(rest))
	}
	if valsKey(got) != valsKey(vals) {
		t.Fatalf("values mismatch: %v vs %v", got, vals)
	}
}
