// Package core is the Cologne execution engine: a distributed Datalog
// runtime fused with a constraint-solver bridge, one Node per network
// address.
//
// Each Node runs two cooperating halves over the same table store:
//
//   - The delta pipeline executes the regular rules by pipelined semi-naive
//     evaluation: every visible row transition fires compiled per-rule
//     plans (compile.go, node.go) over hash-indexed tables (table.go,
//     index.go) with slot-based binding frames and undo trails (join.go).
//     Counting plus a DRed-style recompute handles deletion through
//     recursion (dred.go); aggregates maintain incremental state
//     (aggregate.go).
//
//   - The grounder turns the solver rules into a constraint model on
//     demand (ground.go): var declarations become decision variables,
//     derivation rules build symbolic tuples bottom-up, selections and
//     aggregations over solver attributes compile into constraints, and
//     the solved assignment is materialized back into the tables,
//     triggering downstream regular rules. Joins stream directly off the
//     tables through single-use pipelined iterators with predicate
//     pushdown (stream.go). With Config.SolverIncremental the grounding is
//     cached between solves and patched in place as tuples churn
//     (incremental.go).
//
// See docs/architecture.md for the end-to-end dataflow, docs/grounding.md
// for the grounding internals, and docs/tuning.md for the engine's
// performance knobs.
package core
