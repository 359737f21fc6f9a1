package core

import (
	"testing"
)

// TestCyclicReachabilityDeletion is the canonical counting-breaks case:
// a two-node cycle whose reach tuples support each other. Deleting one edge
// must retract everything that is no longer derivable.
func TestCyclicReachabilityDeletion(t *testing.T) {
	n := newTestNode(t, `
r1 reach(X,Y) <- edge(X,Y).
r2 reach(X,Z) <- reach(X,Y), edge(Y,Z).
`, Config{})
	n.Insert("edge", sval("a"), sval("b"))
	n.Insert("edge", sval("b"), sval("a"))
	for _, w := range [][2]string{{"a", "b"}, {"b", "a"}, {"a", "a"}, {"b", "b"}} {
		if !n.Contains("reach", sval(w[0]), sval(w[1])) {
			t.Fatalf("setup: reach(%s,%s) missing", w[0], w[1])
		}
	}
	n.Delete("edge", sval("b"), sval("a"))
	// Only a->b remains derivable.
	if !n.Contains("reach", sval("a"), sval("b")) {
		t.Fatalf("reach(a,b) wrongly retracted:\n%s", n.Dump())
	}
	for _, w := range [][2]string{{"b", "a"}, {"a", "a"}, {"b", "b"}} {
		if n.Contains("reach", sval(w[0]), sval(w[1])) {
			t.Fatalf("reach(%s,%s) survived cycle deletion:\n%s", w[0], w[1], n.Dump())
		}
	}
	// Re-inserting restores the full closure.
	n.Insert("edge", sval("b"), sval("a"))
	if rows(n, "reach") != 4 {
		t.Fatalf("reach has %d rows after re-insert, want 4:\n%s", rows(n, "reach"), n.Dump())
	}
}

// TestCycleDeletionWithBaseFacts: externally inserted tuples of a recursive
// predicate must survive recompute (they are base facts, not derivations).
func TestCycleDeletionWithBaseFacts(t *testing.T) {
	n := newTestNode(t, `
r1 reach(X,Y) <- edge(X,Y).
r2 reach(X,Z) <- reach(X,Y), edge(Y,Z).
`, Config{})
	// reach(ext1,ext2) asserted directly, not derivable from any edge.
	n.Insert("reach", sval("ext1"), sval("ext2"))
	n.Insert("edge", sval("a"), sval("b"))
	n.Insert("edge", sval("b"), sval("a"))
	n.Delete("edge", sval("b"), sval("a"))
	if !n.Contains("reach", sval("ext1"), sval("ext2")) {
		t.Fatalf("base fact lost by recompute:\n%s", n.Dump())
	}
	if !n.Contains("reach", sval("a"), sval("b")) {
		t.Fatal("derivable tuple lost")
	}
	if n.Contains("reach", sval("b"), sval("b")) {
		t.Fatal("cyclic tuple survived")
	}
}

// TestDownstreamOfRecursiveGroup: consumers of a recursive predicate see
// the recompute diff as ordinary deltas, including aggregates.
func TestDownstreamOfRecursiveGroup(t *testing.T) {
	n := newTestNode(t, `
r1 reach(X,Y) <- edge(X,Y).
r2 reach(X,Z) <- reach(X,Y), edge(Y,Z).
r3 fanout(X,COUNT<Y>) <- reach(X,Y).
`, Config{})
	n.Insert("edge", sval("a"), sval("b"))
	n.Insert("edge", sval("b"), sval("c"))
	n.Insert("edge", sval("c"), sval("a"))
	if !n.Contains("fanout", sval("a"), ival(3)) {
		t.Fatalf("setup fanout wrong:\n%s", n.Dump())
	}
	n.Delete("edge", sval("c"), sval("a"))
	if !n.Contains("fanout", sval("a"), ival(2)) {
		t.Fatalf("aggregate not maintained through recompute:\n%s", n.Dump())
	}
	if n.Contains("fanout", sval("c"), ival(3)) {
		t.Fatalf("stale aggregate row:\n%s", n.Dump())
	}
}

// TestEventJoinedRuleNotTreatedAsRecursive: the Follow-the-Sun r3 idiom —
// a keyed table updated by joining itself with an event — must not trigger
// recursive recompute (the event is transient, so the update is base
// state).
func TestEventJoinedRuleNotTreatedAsRecursive(t *testing.T) {
	n := newTestNode(t, `
r1 state(K,R) <- state(K,R1), bump(K,D), R:=R1+D.
`, Config{Keys: map[string][]int{"state": {0}}, Events: []string{"bump"}})
	if len(n.prog.groups) != 0 {
		t.Fatalf("event-joined self-update treated as recursive group: %v", n.prog.groups)
	}
	n.Insert("state", sval("k"), ival(10))
	n.Insert("bump", sval("k"), ival(5))
	if !n.Contains("state", sval("k"), ival(15)) {
		t.Fatalf("state update broken:\n%s", n.Dump())
	}
	n.Insert("bump", sval("k"), ival(-3))
	if !n.Contains("state", sval("k"), ival(12)) {
		t.Fatalf("second update broken:\n%s", n.Dump())
	}
}

// TestDistributedRecursionFallsBackToCounting: a recursive rule whose head
// ships to another node cannot be recomputed locally and keeps counting
// semantics (no recompute support).
func TestDistributedRecursionFallsBackToCounting(t *testing.T) {
	n := newTestNode(t, `
r1 known(@X,D) <- origin(@X,D).
r2 known(@Y,D) <- known(@X,D), link(@X,Y).
`, Config{})
	if len(n.prog.groups) == 0 {
		t.Fatal("gossip recursion not detected as a group")
	}
	for _, g := range n.prog.groups {
		if g.local {
			t.Fatalf("cross-node recursive group registered as local: %+v", g)
		}
	}
	if len(n.prog.groupOfHead) != 0 {
		t.Fatal("distributed recursion wired into DRed")
	}
}

// TestLocalizedRecursionStillDRed: recursion over tuples shipped in from
// other nodes is local after the localization rewrite, so recompute applies
// (shipped tuples are base facts at the receiver).
func TestLocalizedRecursionStillDRed(t *testing.T) {
	n := newTestNode(t, `
r1 path(@X,Y) <- edge(@X,Y).
r2 path(@X,Z) <- path(@X,Y), edge2(@Y,X,Z).
`, Config{})
	found := false
	for _, g := range n.prog.groups {
		if g.preds["path"] && g.local {
			found = true
		}
	}
	if !found {
		t.Fatalf("localized recursion not registered for recompute: %+v", n.prog.groups)
	}
}
