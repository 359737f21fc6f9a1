# Local targets mirroring .github/workflows/ci.yml exactly: `make ci` is
# what the gate runs.

GO ?= go

.PHONY: build test bench bench-json bench-diff fuzz fuzz-wire fuzz-wal fuzz-log-record fuzz-resync-frame fuzz-churn fuzz-rollup wal-torture bench-smoke-repo lint docs-check recovery-equivalence streaming-equivalence plan-equivalence codec-equivalence serving-soak alloc-budget shard-equivalence shard-smoke sharded-10k figures-smoke gates-check ci

build:
	$(GO) build ./...

# The race-enabled tier-1 run. The verbose log goes to test-race.out and is
# printed only when a test fails; every skipped test is listed with its
# reason afterwards, and appended to the CI job summary when
# $$GITHUB_STEP_SUMMARY is set, so a gate that skips on this host is seen.
test:
	@$(GO) test -race -v ./... > test-race.out 2>&1; status=$$?; \
	if [ $$status -ne 0 ]; then cat test-race.out; else grep -E '^(ok|\?) ' test-race.out; fi; \
	awk '/^=== (RUN|CONT|NAME|PAUSE) / { cur = $$3; next } \
		/^ *--- SKIP: / { skip[++n] = $$3; next } \
		/^ *--- / { next } \
		/^    / { sub(/^ +/, ""); why[cur] = why[cur] " " $$0; next } \
		/^(ok|FAIL)[ \t]/ { for (i = 1; i <= n; i++) out = out "- `" $$2 "." skip[i] "`:" why[skip[i]] "\n"; n = 0 } \
		END { printf "### Skipped tests\n\n%s", (out == "" ? "none\n" : out) }' test-race.out \
		| tee -a "$${GITHUB_STEP_SUMMARY:-/dev/null}"; \
	exit $$status

# Full benchmark grid (paper figures + micro-benches). Use BENCH to focus,
# e.g. make bench BENCH=BenchmarkEngineInsertFixpoint
BENCH ?= .
bench:
	$(GO) test -run='^$$' -bench='$(BENCH)' -benchmem .

# Machine-readable perf trajectory: run the paper-figure benchmarks with a
# fixed iteration count and write BENCH_<date>.json (ns/op, B/op, allocs/op,
# and every custom metric). Compare files across commits to track the
# speedup curve.
BENCHJSON_BENCH ?= BenchmarkSolverACloudModel|BenchmarkFollowSunPerLinkCOP|BenchmarkEngineInsertFixpoint|BenchmarkAblation|BenchmarkACloudCompile|BenchmarkParseAnalyze|BenchmarkTickResolve|BenchmarkCluster|BenchmarkResync|BenchmarkGroundPeakAlloc|BenchmarkWALAppend|BenchmarkLogReplayRestart|BenchmarkServingChurn|BenchmarkSharded
BENCHJSON_ITERS ?= 10
BENCHJSON_OUT ?= BENCH_$(shell date +%Y-%m-%d).json
bench-json:
	$(GO) test -run='^$$' -bench='$(BENCHJSON_BENCH)' -benchtime=$(BENCHJSON_ITERS)x -benchmem . \
		| $(GO) run ./cmd/benchjson -out $(BENCHJSON_OUT)

# Compare two BENCH_*.json files and flag >15% ns/op regressions.
# Informational by default (single runs are noisy); set DIFF_FLAGS to
# e.g. "-fail-on-regress -threshold 20" for a hard gate. With no arguments
# it compares the two most recent BENCH_*.json files in the repo root.
BENCH_OLD ?= $(shell ls -1 BENCH_*.json 2>/dev/null | sort | tail -2 | head -1)
BENCH_NEW ?= $(shell ls -1 BENCH_*.json 2>/dev/null | sort | tail -1)
DIFF_FLAGS ?=
bench-diff:
	$(GO) run ./cmd/benchjson diff $(DIFF_FLAGS) $(BENCH_OLD) $(BENCH_NEW)

# Short fixed-budget fuzz of the Colog parser (the CI job runs the same
# target with FUZZTIME=20s). -fuzzminimizetime=2s caps the minimization of
# each new interesting input, which otherwise may take up to 60s and leave
# the fuzzer at 0 execs/s for the rest of a short budget.
FUZZTIME ?= 30s
fuzz:
	$(GO) test -run='^$$' -fuzz=FuzzParse -fuzztime=$(FUZZTIME) -fuzzminimizetime=2s ./internal/colog

# Fixed-budget fuzz of the delta wire codec (single + batch frames; signs
# outside {-1,+1} must be rejected at decode).
fuzz-wire:
	$(GO) test -run='^$$' -fuzz=FuzzDecodeDeltas -fuzztime=$(FUZZTIME) -fuzzminimizetime=2s ./internal/core

# Fixed-budget fuzz of the write-ahead-log record codec (corpus seeded from
# real node logs; bad CRCs, lengths, and versions must be rejected without
# panicking, and whatever decodes must re-encode canonically).
fuzz-wal:
	$(GO) test -run='^$$' -fuzz=FuzzDecodeWALRecord -fuzztime=$(FUZZTIME) -fuzzminimizetime=2s ./internal/store

# Fixed-budget fuzz of the core log-record payload decoders and checkpoint
# import (corpus seeded from the codec-equivalence scenarios): malformed
# records and oversized counts must be rejected without panicking, and
# whatever decodes must re-encode to bytes that decode to the same value.
fuzz-log-record:
	$(GO) test -run='^$$' -fuzz='^FuzzDecodeLogRecord$$' -fuzztime=$(FUZZTIME) -fuzzminimizetime=2s ./internal/core

# Fixed-budget fuzz of the resync digest and rows frame decoders (frames
# arrive from UDP peers; same property as fuzz-log-record).
fuzz-resync-frame:
	$(GO) test -run='^$$' -fuzz='^FuzzDecodeResyncFrame$$' -fuzztime=$(FUZZTIME) -fuzzminimizetime=2s ./internal/core

# Fixed-budget fuzz of the churn-event frame codec (corpus recorded from a
# real cmd/serve load-driver run; bad versions, ops, and torn frames must be
# rejected without panicking, and whatever decodes must round-trip
# losslessly).
fuzz-churn:
	$(GO) test -run='^$$' -fuzz=FuzzDecodeChurnEvent -fuzztime=$(FUZZTIME) -fuzzminimizetime=2s ./internal/serve

# Fixed-budget fuzz of the shard rollup-frame codec (corpus captured live
# from a real 4-shard run; bad magic, versions, torn varints, and trailing
# bytes must be rejected without panicking, and whatever decodes must
# round-trip bit-exactly, NaN objectives included).
fuzz-rollup:
	$(GO) test -run='^$$' -fuzz=FuzzDecodeRollupFrame -fuzztime=$(FUZZTIME) -fuzzminimizetime=2s ./internal/cluster

# The WAL crash-point torture gate: kill a disk-backed node at every log
# record boundary of a recorded run — torn mid-record writes and a torn
# header included — restart it, and require convergence on exactly the
# uninterrupted run's rows; and cut a serving node's group-committed log at
# every boundary and commit offset, each cut replaying to the live node's
# state at that tick (see docs/storage.md).
wal-torture:
	$(GO) test -count=1 -run 'TestWALTorture' -v ./internal/cluster ./internal/store

# The repo benchmark's own smoke test: bench/ is a separate module, so
# neither `go test ./...` nor the race run reaches it. A change to an API it
# imports must keep it building and its short workloads correct.
bench-smoke-repo:
	cd bench && $(GO) test -count=1 .

# The recovery-equivalence gate: kill/restart mid-run must converge to the
# byte-identical tables, objectives, and solver traces of an uninterrupted
# run (runtime suite + all three scenario packages, sim and UDP modes).
recovery-equivalence:
	$(GO) test -count=1 -run 'TestRecovery' ./internal/cluster ./internal/acloud ./internal/followsun ./internal/wireless

# The streaming-grounding gate: under churn, the pipelined join path with
# predicate pushdown must reproduce the recorded reference
# internal/core/testdata/ground_equiv.golden at every step (tables,
# objectives, solver-node traces, grounded model text; see
# docs/grounding.md).
streaming-equivalence:
	$(GO) test -count=1 -run 'TestStreamingGroundEquivalence' ./internal/core

# The plan-equivalence gate: every delta and ground plan the one
# compile-time planner (planBody) builds for the bundled programs must match
# the orders and bound columns recorded from the planners it replaced in
# internal/core/testdata/plans.golden.
plan-equivalence:
	$(GO) test -count=1 -run 'TestPlansMatchRecorded' ./internal/core

# The codec-equivalence gate: every log record type, checkpoint, delta and
# batch frame, and resync frame the codec scenarios produce must hash to
# internal/core/testdata/codec.golden, recorded before the decoders moved
# onto one reader, and decode and re-encode to exactly its bytes.
codec-equivalence:
	$(GO) test -count=1 -run 'TestCodecMatchesRecorded' ./internal/core

# The serving-soak gate: thousands of random churn events through the
# serving runtime per scenario, with randomized batching and injected
# deadline pressure; at every quiescent point the serving node must be
# byte-identical to a batch re-solve over the same cumulative facts
# (see docs/serving.md). Run under -race, as in CI.
serving-soak:
	$(GO) test -race -count=1 -run 'TestServingSoakEquivalence' ./internal/serve

# The allocation-regression gates: streaming grounding's B/op on the
# join-heavy BenchmarkGroundPeakAlloc workload must stay under the budget in
# ground_alloc_budget.txt, spawning the 40-center Follow-the-Sun ring
# (BenchmarkSpawnRing) under spawn_alloc_budget.txt, and 3000 more search
# nodes on the ACloud COP may allocate only for their extra incumbents
# (TestSearchAllocBudget). Run without -race (the tests skip themselves
# under it).
alloc-budget:
	$(GO) test -count=1 -run 'TestGroundAllocBudget|TestSpawnAllocBudget|TestSearchAllocBudget' . ./internal/core

# The shard-equivalence gate: partitioning any scenario into key-range
# shards with rollup aggregation must keep results byte-identical to the
# unsharded run — and shard-count=1 must be byte-identical to no sharding
# at all (see docs/sharding.md).
shard-equivalence:
	$(GO) test -count=1 -run 'TestShard|TestClusterShardEquivalence' ./internal/cluster ./internal/acloud ./internal/followsun ./internal/wireless

# The multi-process smoke gate: three real OS processes over loopback UDP
# negotiate a sharded wireless round in token lockstep; merged decisions
# must match the single-process run link for link, and the rollup must fold
# every shard.
shard-smoke:
	$(GO) test -count=1 -run 'TestShardMultiProcess' -v ./internal/wireless

# The 10k-node scale gate: a 100x100 grid runs a capped sharded round
# through the rollup tree, and hierarchical aggregation must cost fewer
# cross-shard summary frames than all-pairs gossip. Heavy; env-gated.
sharded-10k:
	COLOGNE_SHARDED_10K=1 $(GO) test -count=1 -run 'TestSharded10kRound' -v -timeout 30m ./internal/wireless

# The figure-binary smoke gate: cmd/acloud, cmd/followsun and cmd/wireless
# print the paper's Figures 2-7 through each scenario's one experiment
# runner, RunCluster. They have no tests of their own, so each must at least
# exit 0.
figures-smoke:
	$(GO) run ./cmd/acloud >/dev/null
	$(GO) run ./cmd/followsun >/dev/null
	$(GO) run ./cmd/wireless >/dev/null
	$(GO) run ./cmd/wireless -fig7 >/dev/null

# The named-gate check: every -run pattern that ci.yml or this Makefile
# selects tests with must match a test in each package it names, and each
# of its |-separated alternatives must match a test in one of them, so a
# deleted or renamed test cannot leave a gate passing on nothing. The '^$$'
# pattern of the fuzz and benchmark lines selects no test on purpose.
gates-check:
	@tmp=$$(mktemp -d); trap 'rm -rf "$$tmp"' EXIT; \
	grep -hE '^[^#]*(go|[$$][(]GO[)]) test .*-run[ =]' Makefile .github/workflows/ci.yml | \
	sed -E 's/[$$][$$]/$$/g; s/.*-run[ =]//' | tr -d "'" | \
	while read -r pat rest; do \
		[ "$$pat" = '^$$' ] && continue; \
		pkgs=; for w in $$rest; do case $$w in .*) pkgs="$$pkgs $$w";; esac; done; \
		lists=; \
		for pkg in $$($(GO) list $$pkgs); do \
			f="$$tmp/$$(echo $$pkg | tr / _)"; \
			[ -f "$$f" ] || $(GO) test -list . $$pkg | grep '^Test' > "$$f" || true; \
			lists="$$lists $$f"; \
			grep -qE "$$pat" "$$f" || { echo "gates-check: -run '$$pat' matches no test in $$pkg"; exit 1; }; \
		done; \
		for alt in $$(echo "$$pat" | tr '|' ' '); do \
			cat $$lists | grep -qE "$$alt" || { echo "gates-check: '$$alt' of -run '$$pat' matches no test in$$pkgs"; exit 1; }; \
		done; \
		echo "gates-check: ok  $$pat$$pkgs"; \
	done

# Documentation gate: broken relative links and intra-document anchors in
# README.md/docs/*.md and unformatted example Go files fail the build.
docs-check:
	$(GO) run ./cmd/docscheck

# The first gate below is the solver property test: random solves vs brute
# force and vs the search traces recorded from the deleted legacy core in
# internal/solver/testdata/engine_trace.golden. The two TestClusterEquivalence
# lines check each scenario's RunCluster, at several worker counts, against
# fingerprints recorded from the deleted sequential Run loops.
ci: lint build test gates-check docs-check bench-smoke-repo figures-smoke
	$(GO) test -count=1 -run 'TestEnginesMatchBruteForce|TestEventEngineTraceMatchesLegacy' ./internal/solver
	$(GO) test -count=1 -run 'TestIncrementalGroundEquivalence' ./internal/core
	$(GO) test -count=1 -run 'TestStreamingGroundEquivalence' ./internal/core
	$(GO) test -count=1 -run 'TestPlansMatchRecorded' ./internal/core
	$(GO) test -count=1 -run 'TestCodecMatchesRecorded' ./internal/core
	$(GO) test -count=1 -run 'TestGroundAllocBudget|TestSpawnAllocBudget|TestSearchAllocBudget' . ./internal/core
	$(GO) test -count=1 -run 'TestClusterEquivalence' ./internal/acloud ./internal/followsun ./internal/wireless
	$(GO) test -race -count=1 -run TestClusterEquivalence ./internal/followsun ./internal/wireless
	$(GO) test -race -run TestCluster ./internal/cluster/...
	$(GO) test -count=1 -run 'TestRecovery' ./internal/cluster ./internal/acloud ./internal/followsun ./internal/wireless
	$(GO) test -count=1 -run 'TestWALTorture' ./internal/cluster ./internal/store
	$(GO) test -race -count=1 -run 'TestServingSoakEquivalence' ./internal/serve
	$(GO) test -count=1 -run 'TestShard|TestClusterShardEquivalence' ./internal/cluster ./internal/acloud ./internal/followsun ./internal/wireless
	$(GO) test -count=1 -run 'TestShardMultiProcess' ./internal/wireless
	$(GO) test -run='^$$' -fuzz=FuzzParse -fuzztime=20s -fuzzminimizetime=2s ./internal/colog
	$(GO) test -run='^$$' -fuzz=FuzzDecodeDeltas -fuzztime=20s -fuzzminimizetime=2s ./internal/core
	$(GO) test -run='^$$' -fuzz='^FuzzDecodeLogRecord$$' -fuzztime=20s -fuzzminimizetime=2s ./internal/core
	$(GO) test -run='^$$' -fuzz='^FuzzDecodeResyncFrame$$' -fuzztime=20s -fuzzminimizetime=2s ./internal/core
	$(GO) test -run='^$$' -fuzz=FuzzDecodeWALRecord -fuzztime=20s -fuzzminimizetime=2s ./internal/store
	$(GO) test -run='^$$' -fuzz=FuzzDecodeChurnEvent -fuzztime=20s -fuzzminimizetime=2s ./internal/serve
	$(GO) test -run='^$$' -fuzz=FuzzDecodeRollupFrame -fuzztime=20s -fuzzminimizetime=2s ./internal/cluster
	$(GO) test -run='^$$' -bench=. -benchtime=1x ./...

lint:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; \
	fi
	$(GO) vet ./...
