package repro

import (
	"bufio"
	"os"
	"strconv"
	"strings"
	"testing"
)

// readAllocBudget parses a budget file such as ground_alloc_budget.txt:
// comment lines start with '#', the first remaining line is the B/op
// ceiling.
func readAllocBudget(t *testing.T, path string) int64 {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatalf("alloc budget file %s: %v", path, err)
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		n, err := strconv.ParseInt(line, 10, 64)
		if err != nil {
			t.Fatalf("alloc budget file %s: bad line %q: %v", path, line, err)
		}
		return n
	}
	t.Fatalf("alloc budget file %s: no budget line", path)
	return 0
}

// TestGroundAllocBudget is the allocation-regression gate for the grounding
// join path: it benchmarks BenchmarkGroundPeakAlloc in-process and fails if
// B/op exceeds the ceiling committed in ground_alloc_budget.txt.
// A failure means a change re-introduced per-row garbage on the grounding
// join path (a row lift, a transient index, an unpooled frame); either
// remove the allocation or consciously raise the budget in the same commit.
func TestGroundAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation inflates allocation sizes")
	}
	if testing.Short() {
		t.Skip("benchmark-backed gate")
	}
	budget := readAllocBudget(t, "ground_alloc_budget.txt")
	res := testing.Benchmark(BenchmarkGroundPeakAlloc)
	if got := res.AllocedBytesPerOp(); got > budget {
		t.Fatalf("grounding allocates %d B/op, budget is %d B/op (ground_alloc_budget.txt)", got, budget)
	} else {
		t.Logf("grounding: %d B/op within budget %d B/op", got, budget)
	}
}

// TestSpawnAllocBudget is the allocation-regression gate for node
// construction: it benchmarks BenchmarkSpawnRing in-process — 40
// Follow-the-Sun centers spawned from one analysis result — and fails if
// B/op exceeds the ceiling committed in spawn_alloc_budget.txt. A failure
// means per-node work crept back into spawning (a per-node compile, plan
// copy, or eagerly built per-plan state); either remove it or consciously
// raise the budget in the same commit.
func TestSpawnAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation inflates allocation sizes")
	}
	if testing.Short() {
		t.Skip("benchmark-backed gate")
	}
	budget := readAllocBudget(t, "spawn_alloc_budget.txt")
	res := testing.Benchmark(spawnRingBench)
	if got := res.AllocedBytesPerOp(); got > budget {
		t.Fatalf("spawning the 40-center ring allocates %d B/op, budget is %d B/op (spawn_alloc_budget.txt)", got, budget)
	} else {
		t.Logf("spawning the 40-center ring: %d B/op within budget %d B/op", got, budget)
	}
}
