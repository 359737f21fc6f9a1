package cluster

import (
	"strings"
	"testing"
	"time"

	"repro/internal/analysis"
	"repro/internal/colog"
	"repro/internal/core"
)

// orderSrc ships one row per emit fact to the named destination. cell is
// keyed by (location, key), so when two senders write the same key the row
// that arrives last replaces the other.
const orderSrc = `
s1 cell(@Z,K,V) <- emit(@X,Z,K,V).
`

// TestClusterBarrierReplaysItemOrder: the epoch barrier must replay staged
// messages in item order, whatever the worker count. Two items of one epoch
// send the same key to a third node's keyed table, so the final row names
// the item that was replayed last. Sim-mode byte-identity with a sequential
// run rests on this order.
func TestClusterBarrierReplaysItemOrder(t *testing.T) {
	prog, err := colog.Parse(orderSrc)
	if err != nil {
		t.Fatal(err)
	}
	res, err := analysis.Analyze(prog, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 2} {
		r := New(Options{Workers: workers})
		for _, addr := range []string{"a", "b", "c"} {
			spec := NodeSpec{Addr: addr, Program: res, Config: core.Config{Keys: map[string][]int{"cell": {0, 1}}}}
			if _, err := r.Spawn(spec); err != nil {
				t.Fatal(err)
			}
		}
		emit := func(from string, v int64) Item {
			return Item{
				Label: "emit " + from,
				Nodes: []string{from},
				Run: func() (*core.SolveResult, error) {
					return nil, r.Node(from).Insert("emit", sval(from), sval("c"), sval("k"), ival(v))
				},
			}
		}
		if _, err := r.RunEpoch([]Item{emit("a", 1), emit("b", 2)}); err != nil {
			t.Fatal(err)
		}
		r.Settle()
		rows := r.Node("c").Rows("cell")
		if len(rows) != 1 || rows[0][2].I != 2 {
			t.Fatalf("workers=%d: c's cell rows = %v, want the second item's value 2 written last", workers, rows)
		}
		r.Close()
	}
}

// TestClusterCommitFailureFailsEpoch: when a node's delta log fails
// between epochs, the next epoch must return that node's commit error
// promptly, and so must the epoch after it, instead of hanging or
// publishing what the log lost.
func TestClusterCommitFailureFailsEpoch(t *testing.T) {
	r := buildRing(t, Options{Workers: 2, Storage: "disk"}, 3)
	defer r.Close()
	if _, err := r.RunEpoch(solveItems(r)); err != nil {
		t.Fatal(err)
	}
	r.Settle()
	if err := r.members["n1"].spec.Config.Storage.Log().Close(); err != nil {
		t.Fatal(err)
	}
	for epoch := 0; epoch < 2; epoch++ {
		done := make(chan error, 1)
		go func() {
			_, err := r.RunEpoch(solveItems(r))
			done <- err
		}()
		select {
		case err := <-done:
			t.Logf("epoch %d: %v", epoch, err)
			if want := "core: committing delta log at n1"; err == nil || !strings.Contains(err.Error(), want) {
				t.Fatalf("epoch %d after the log closed: err = %v, want one containing %q", epoch, err, want)
			}
		case <-time.After(10 * time.Second):
			t.Fatalf("epoch %d after the log closed did not return", epoch)
		}
	}
}
