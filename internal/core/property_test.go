package core

import (
	"math/rand"
	"testing"

	"repro/internal/colog"
	"repro/internal/transport"
)

// propSrc exercises joins, filters, definitional bindings, recursion and
// two aggregates at once.
const propSrc = `
r1 reach(X,Y) <- edge(X,Y).
r2 reach(X,Z) <- reach(X,Y), edge(Y,Z).
r3 deg(X,COUNT<Y>) <- edge(X,Y).
r4 heavy(X,W) <- edge(X,Y), weight(Y,V), W==V*2, V>3.
r5 tot(SUM<V>) <- weight(Y,V).
`

// TestIncrementalEqualsRecompute is the core IVM invariant: after an
// arbitrary interleaving of insertions and deletions, every table must
// equal the one produced by a fresh engine that only ever saw the surviving
// facts (with their surviving multiplicities).
func TestIncrementalEqualsRecompute(t *testing.T) {
	res := mustAnalyze(t, propSrc, nil)
	rng := rand.New(rand.NewSource(5))
	nodes := []string{"a", "b", "c", "d"}

	for trial := 0; trial < 60; trial++ {
		live, err := NewNode("x", res, Config{}, nil)
		if err != nil {
			t.Fatal(err)
		}
		counts := map[string]int{} // fact key -> net count
		type fact struct {
			pred string
			vals []colog.Value
		}
		facts := map[string]fact{}
		key := func(f fact) string { return f.pred + "/" + valsKey(f.vals) }
		randomFact := func() fact {
			if rng.Intn(2) == 0 {
				return fact{"edge", []colog.Value{
					sval(nodes[rng.Intn(len(nodes))]), sval(nodes[rng.Intn(len(nodes))]),
				}}
			}
			return fact{"weight", []colog.Value{
				sval(nodes[rng.Intn(len(nodes))]), ival(int64(rng.Intn(8))),
			}}
		}
		ops := 5 + rng.Intn(25)
		for i := 0; i < ops; i++ {
			f := randomFact()
			k := key(f)
			facts[k] = f
			if counts[k] > 0 && rng.Intn(3) == 0 {
				if err := live.Delete(f.pred, f.vals...); err != nil {
					t.Fatal(err)
				}
				counts[k]--
			} else {
				if err := live.Insert(f.pred, f.vals...); err != nil {
					t.Fatal(err)
				}
				counts[k]++
			}
		}
		// Fresh engine with only the surviving facts.
		fresh, err := NewNode("x", res, Config{}, nil)
		if err != nil {
			t.Fatal(err)
		}
		for k, n := range counts {
			for i := 0; i < n; i++ {
				f := facts[k]
				if err := fresh.Insert(f.pred, f.vals...); err != nil {
					t.Fatal(err)
				}
			}
		}
		for _, table := range []string{"edge", "weight", "reach", "deg", "heavy", "tot"} {
			a, b := live.Rows(table), fresh.Rows(table)
			if len(a) != len(b) {
				t.Fatalf("trial %d: table %s differs: incremental %d rows, recomputed %d\nlive:\n%s\nfresh:\n%s",
					trial, table, len(a), len(b), live.Dump(), fresh.Dump())
			}
			for i := range a {
				if valsKey(a[i]) != valsKey(b[i]) {
					t.Fatalf("trial %d: table %s row %d differs: %v vs %v",
						trial, table, i, a[i], b[i])
				}
			}
		}
	}
}

// distSrc is a localized rule: want(@X,D) aggregates stores shipped from
// X's in-links.
const distSrc = `
d0 out(@X,D,SUM<R>) <- link(@Y,X), store(@Y,D,R), want(@X,D).
`

// TestMalformedMessageIgnored: garbage datagrams must not corrupt a node.
func TestMalformedMessageIgnored(t *testing.T) {
	res := mustAnalyze(t, distSrc, nil)
	n, err := NewNode("x", res, Config{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	n.handleMessage(transport.Message{From: "evil", To: "x", Payload: []byte("junk")})
	if n.LastError == nil {
		t.Fatal("malformed payload not reported")
	}
	// Node still functions.
	if err := n.Insert("want", sval("x"), sval("d1")); err != nil {
		t.Fatal(err)
	}
}
