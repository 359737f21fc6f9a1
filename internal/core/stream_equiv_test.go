package core_test

import (
	"crypto/sha256"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"testing"

	"repro/internal/analysis"
	"repro/internal/colog"
	"repro/internal/core"
	"repro/internal/store"
)

// groundGolden records, for every corpus program and churn step of
// TestStreamingGroundEquivalence, the solve outcome, a digest of the table
// contents and a digest of the grounded model text. It was recorded from
// the materialized grounder (the original join path, which built merged
// row sets per solve), and every streaming lane matched it on every step
// before that path was removed. A deliberate change to emission order
// replaces the affected lines with the "got" lines the test prints.
const groundGolden = "testdata/ground_equiv.golden"

// buildCorpusNode parses a corpus program and builds one node with the
// given incremental setting and storage backend (nil for the default
// in-memory one). The program and config are returned too so a caller can
// rebuild the node later (the disk lane replays its log).
func buildCorpusNode(t *testing.T, name string, incremental bool, st store.Store) (*core.Node, *analysis.Result, core.Config) {
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
	cfg := core.Config{
		SolverPropagate:   true,
		Keys:              corpusKeys[name],
		SolverIncremental: incremental,
		Storage:           st,
	}
	node, err := core.NewNode("local", res, cfg, nil)
	if err != nil {
		t.Fatalf("node: %v", err)
	}
	return node, res, cfg
}

// goldenLine renders one churn step's record in the groundGolden format:
// status, objective, model size, search nodes and assignments verbatim,
// then sha256 digests of the node's tables (sorted rows of every table, by
// name) and of the grounded model text.
func goldenLine(prog string, step int, r *core.SolveResult, n *core.Node, model string) string {
	assigns := make([]string, len(r.Assignments))
	for i, a := range r.Assignments {
		vals := make([]string, len(a.Vals))
		for j, v := range a.Vals {
			vals[j] = v.String()
		}
		assigns[i] = a.Pred + "(" + strings.Join(vals, ",") + ")"
	}
	tables := sha256.New()
	names := n.TableNames()
	sort.Strings(names)
	for _, pred := range names {
		fmt.Fprintf(tables, "%s\n", pred)
		for _, row := range n.Rows(pred) {
			for _, v := range row {
				fmt.Fprintf(tables, "%s|", v.Key())
			}
			fmt.Fprintf(tables, "\n")
		}
	}
	return fmt.Sprintf("%s step=%d status=%s obj=%s vars=%d cons=%d nodes=%d assign=%s tables=%x model=%x",
		prog, step, r.Status, strconv.FormatFloat(r.Objective, 'g', -1, 64),
		r.NumVars, r.NumCons, r.Stats.Nodes, strings.Join(assigns, ";"),
		tables.Sum(nil), sha256.Sum256([]byte(model)))
}

// readGolden loads groundGolden keyed by "<program> step=<n>".
func readGolden(t *testing.T) map[string]string {
	t.Helper()
	data, err := os.ReadFile(groundGolden)
	if err != nil {
		t.Fatal(err)
	}
	golden := map[string]string{}
	for _, line := range strings.Split(string(data), "\n") {
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		f := strings.Fields(line)
		if len(f) < 2 {
			t.Fatalf("%s: malformed line %q", groundGolden, line)
		}
		golden[f[0]+" "+f[1]] = line
	}
	return golden
}

// TestStreamingGroundEquivalence drives random insert/delete/update churn
// scripts over every corpus program through three nodes in lockstep — an
// incremental re-grounding node, a fresh-grounding node, and a fresh node
// on the disk store — solving after every step. The lanes must agree with
// each other (status, objective, model size, search-trace length,
// assignments, table contents), and the first lane must reproduce the
// recorded reference in groundGolden, including the digest of its grounded
// model text. This is the pushdown-correctness gate: any join reordered,
// any compare hoisted past a constraint-posting op, or any row enumerated
// out of arrival order changes the model text even where the solve outcome
// happens to survive.
func TestStreamingGroundEquivalence(t *testing.T) {
	entries, err := os.ReadDir(corpusDir)
	if err != nil {
		t.Fatalf("corpus dir: %v", err)
	}
	golden := readGolden(t)
	for _, ent := range entries {
		if filepath.Ext(ent.Name()) != ".colog" {
			continue
		}
		t.Run(ent.Name(), func(t *testing.T) {
			inc, _, _ := buildCorpusNode(t, ent.Name(), true, nil)
			fresh, _, _ := buildCorpusNode(t, ent.Name(), false, nil)
			// The storage dimension: the same churn through a disk-backed
			// node must stay bit-identical to the in-memory lanes — the
			// ordered key encoding preserves arrival-order seqs, so join
			// enumeration and solver traces may not diverge.
			diskStore, err := store.Open("disk", t.TempDir(), false)
			if err != nil {
				t.Fatal(err)
			}
			defer diskStore.Close()
			disk, diskRes, diskCfg := buildCorpusNode(t, ent.Name(), false, diskStore)
			nodes := []*core.Node{inc, fresh, disk}
			labels := []string{"incremental", "fresh", "disk"}
			checked := 0

			rng := rand.New(rand.NewSource(int64(len(ent.Name()))*6133 + 17))
			keys := corpusKeys[ent.Name()]

			factPreds := map[string]bool{}
			for _, f := range inc.Program().Program.Facts {
				factPreds[f.Atom.Pred] = true
			}
			var preds []string
			for p := range factPreds {
				preds = append(preds, p)
			}
			sort.Strings(preds)

			apply := func(op func(n *core.Node) error) {
				t.Helper()
				for i, n := range nodes {
					if err := op(n); err != nil {
						t.Fatalf("%s: %v", labels[i], err)
					}
				}
			}

			for step := 0; step < 40; step++ {
				pred := preds[rng.Intn(len(preds))]
				rows := inc.Rows(pred)
				keyCols := map[int]bool{}
				for _, c := range keys[pred] {
					keyCols[c] = true
				}
				switch k := rng.Intn(4); {
				case k <= 1 && len(rows) > 0: // value update (twice as likely)
					row := append([]colog.Value(nil), rows[rng.Intn(len(rows))]...)
					var numCols []int
					for c, v := range row {
						if v.Kind == colog.KindInt && !keyCols[c] {
							numCols = append(numCols, c)
						}
					}
					if len(numCols) == 0 {
						continue
					}
					c := numCols[rng.Intn(len(numCols))]
					old := append([]colog.Value(nil), row...)
					row[c] = colog.IntVal(int64(1 + rng.Intn(60)))
					apply(func(n *core.Node) error {
						if err := n.Delete(pred, old...); err != nil {
							return err
						}
						return n.Insert(pred, row...)
					})
				case k == 2 && len(rows) > 1: // delete
					row := rows[rng.Intn(len(rows))]
					apply(func(n *core.Node) error { return n.Delete(pred, row...) })
				case k == 3 && len(rows) > 0: // insert a structurally new row
					row := append([]colog.Value(nil), rows[rng.Intn(len(rows))]...)
					switch row[0].Kind {
					case colog.KindInt:
						row[0] = colog.IntVal(int64(200 + step))
					case colog.KindString:
						row[0] = colog.StringVal(fmt.Sprintf("%s-s%d", row[0].S, step))
					default:
						continue
					}
					for c := 1; c < len(row); c++ {
						if row[c].Kind == colog.KindInt {
							row[c] = colog.IntVal(int64(1 + rng.Intn(40)))
						}
					}
					apply(func(n *core.Node) error { return n.Insert(pred, row...) })
				default:
					continue
				}

				results := make([]*core.SolveResult, len(nodes))
				for i, n := range nodes {
					r, err := n.Solve(core.SolveOptions{})
					if err != nil {
						t.Fatalf("step %d: %s solve: %v", step, labels[i], err)
					}
					results[i] = r
				}
				got := goldenLine(ent.Name(), step, results[0], nodes[0], core.GroundedModelText(nodes[0]))
				key := fmt.Sprintf("%s step=%d", ent.Name(), step)
				if want := golden[key]; got != want {
					t.Fatalf("step %d: %s lane differs from %s:\n got %s\nwant %s", step, labels[0], groundGolden, got, want)
				}
				checked++
				for i := 1; i < len(nodes); i++ {
					compareSolves(t, step, results[0], results[i])
					compareNodes(t, step, nodes[0], nodes[i])
				}
			}

			recorded := 0
			for key := range golden {
				if strings.HasPrefix(key, ent.Name()+" ") {
					recorded++
				}
			}
			if checked != recorded {
				t.Fatalf("checked %d churn steps, %s records %d", checked, groundGolden, recorded)
			}

			// Replay gate: rebuild the disk node purely from its write-ahead
			// log and require the same tables, row for row and seq for seq
			// (Rows iterates in arrival order). The snapshot comes first —
			// replay reuses the same backend, clearing the live tables.
			snap := map[string][][]colog.Value{}
			names := disk.TableNames()
			for _, pred := range names {
				snap[pred] = disk.Rows(pred)
			}
			replayed, err := core.ReplayNode("local", diskRes, diskCfg, nil)
			if err != nil {
				t.Fatalf("replay: %v", err)
			}
			for _, pred := range names {
				want, got := snap[pred], replayed.Rows(pred)
				if len(want) != len(got) {
					t.Fatalf("replayed table %s: %d vs %d rows", pred, len(got), len(want))
				}
				for i := range want {
					for j := range want[i] {
						if !want[i][j].Equal(got[i][j]) {
							t.Fatalf("replayed table %s row %d: %v vs %v", pred, i, got[i], want[i])
						}
					}
				}
			}
		})
	}
}
