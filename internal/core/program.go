package core

import (
	"fmt"
	"slices"
	"sync/atomic"

	"repro/internal/analysis"
	"repro/internal/colog"
	"repro/internal/transport"
)

// Program is an analyzed Colog program compiled for execution: the delta
// plans of its regular rules, the recompute plans of its recursive groups,
// the ground plans of its solver rules, one variable slot layout per rule
// (shared by all of them), the table layouts with their declared and
// inferred primary keys, and what DRed and the grounder derive from the
// rules alone (recursive groups, solver rule levels). Every plan is built
// here, once, by planBody; solving builds none.
//
// A Program is immutable once Compile returns. Any number of nodes, on any
// number of goroutines, can be built from one and share it read-only; each
// node owns its tables, binding frames and index memos. The Program lives
// as long as whoever compiled it holds it — there is no global cache.
type Program struct {
	res *analysis.Result
	// keys and events are the Config.Keys and Config.Events the program
	// was compiled with; a node built from it must be configured alike.
	keys   map[string][]int
	events map[string]bool

	plans  map[string][]*plan // delta plans by trigger predicate
	nplans int                // delta and recompute plans
	slots  []*ruleSlots       // variable layout per rule of res.Program.Rules
	tables []tableLayout      // invokeSolver included

	// Recursive-group (DRed) metadata; see dred.go.
	groups      []*recursiveGroup
	groupOfHead map[int]int
	feedsGroup  map[string][]int

	// Grounder metadata: the ground plan per solver rule (nil for regular
	// rules), the solver derivation rules' dependency levels, the
	// constraint rules in program order, each rule's distinct body
	// predicates, the solver derivation heads, the predicates variable
	// declarations read, and the solver predicates — the variable
	// declarations plus the derivation heads (see ground.go and
	// incremental.go).
	ground    []*groundPlan
	levels    [][]int
	consIdx   []int
	reads     [][]string
	headPreds map[string]bool
	varPreds  map[string]bool
	symPreds  map[string]bool
}

// compiles counts Compile calls; tests read it to check that callers
// building many nodes compile once.
var compiles atomic.Int64

// tableLayout is what a node needs to allocate one table.
type tableLayout struct {
	name    string
	arity   int
	keyCols []int // nil = whole-row set semantics
	event   bool
}

// Compile builds the Program for an analysis result under the given
// primary keys and event predicates (Config.Keys and Config.Events, which
// are fixed at compile time).
func Compile(res *analysis.Result, keys map[string][]int, events []string) (*Program, error) {
	compiles.Add(1)
	p := &Program{res: res, keys: make(map[string][]int, len(keys)), events: eventSet(events)}
	for pred, cols := range keys {
		p.keys[pred] = cols
	}
	rules := res.Program.Rules
	p.slots = make([]*ruleSlots, len(rules))
	for ri, r := range rules {
		p.slots[ri] = collectRuleSlots(r)
	}
	plans, nplans, err := compileRules(res, p.slots)
	if err != nil {
		return nil, err
	}
	p.plans, p.nplans = plans, nplans

	shipKeys := inferShipKeys(res, keys, rules)
	p.tables = make([]tableLayout, 0, len(res.Tables)+1)
	for name, ti := range res.Tables {
		p.tables = append(p.tables, tableLayout{name: name, arity: ti.Arity, keyCols: shipKeys[name], event: p.events[name]})
	}
	if _, ok := res.Tables[InvokeSolverPred]; !ok {
		p.tables = append(p.tables, tableLayout{name: InvokeSolverPred, event: true})
	}
	if err := p.initDred(); err != nil {
		return nil, err
	}
	if err := p.initGroundMeta(); err != nil {
		return nil, err
	}
	return p, nil
}

// initGroundMeta derives the grounder's per-program metadata and compiles
// the ground plans.
func (p *Program) initGroundMeta() error {
	res := p.res
	p.levels = solverRuleLevels(res.Program.Rules, res.SolverOrder)
	p.reads = make([][]string, len(res.Program.Rules))
	p.headPreds = map[string]bool{}
	p.varPreds = map[string]bool{}
	p.symPreds = map[string]bool{}
	for ri, r := range res.Program.Rules {
		p.reads[ri] = ruleReads(r)
		switch res.Classes[ri] {
		case analysis.SolverDerivationRule:
			p.headPreds[r.Head.Pred] = true
			p.symPreds[r.Head.Pred] = true
		case analysis.SolverConstraintRule:
			p.consIdx = append(p.consIdx, ri)
		}
	}
	for _, vd := range res.Program.Vars {
		p.symPreds[vd.Decl.Pred] = true
		p.varPreds[vd.ForAll.Pred] = true
		if vd.Domain != nil && vd.Domain.FromTable != "" {
			p.varPreds[vd.Domain.FromTable] = true
		}
	}
	p.ground = make([]*groundPlan, len(res.Program.Rules))
	for ri := range res.Program.Rules {
		if res.Classes[ri] == analysis.RegularRule {
			continue
		}
		gp, err := p.compileGroundPlan(ri)
		if err != nil {
			return err
		}
		p.ground[ri] = gp
	}
	if goal := res.Program.Goal; goal != nil && goal.Sense != colog.GoalSatisfy && !p.known(goal.Atom.Pred) {
		return everrf("goal", "%v", unknownPredErr(goal.Atom.Pred))
	}
	return nil
}

// known reports whether the grounder can read pred: a table or a solver
// predicate.
func (p *Program) known(pred string) bool {
	return p.symPreds[pred] || p.res.Tables[pred] != nil
}

// isEvent reports whether pred is a table with event semantics.
func (p *Program) isEvent(pred string) bool {
	if pred == InvokeSolverPred {
		return true
	}
	_, ok := p.res.Tables[pred]
	return ok && p.events[pred]
}

// NewNode creates a Cologne instance executing the program at addr and
// registers it on the transport (see the package-level NewNode).
// cfg.Keys and cfg.Events must match the ones compiled in.
func (p *Program) NewNode(addr string, cfg Config, tr transport.Transport) (*Node, error) {
	n, err := p.newNode(addr, cfg, tr)
	if err != nil {
		return nil, err
	}
	// Load program facts addressed to this node (or unaddressed facts in
	// centralized mode), unless the caller defers them for multi-process
	// bring-up.
	if !cfg.DeferFacts {
		if err := n.InsertProgramFacts(); err != nil {
			return nil, err
		}
	}
	return n, nil
}

// RestoreNode rebuilds a node of the program from a checkpoint (see the
// package-level RestoreNode).
func (p *Program) RestoreNode(addr string, cfg Config, tr transport.Transport, checkpoint []byte) (*Node, error) {
	n, err := p.newNode(addr, cfg, tr)
	if err != nil {
		return nil, err
	}
	if err := n.ImportCheckpoint(checkpoint); err != nil {
		return nil, err
	}
	return n, nil
}

// ReplayNode rebuilds a node of the program from its write-ahead delta log
// (see the package-level ReplayNode).
func (p *Program) ReplayNode(addr string, cfg Config, tr transport.Transport) (*Node, error) {
	if cfg.Storage == nil || cfg.Storage.Log() == nil {
		return nil, fmt.Errorf("core: replay at %s: storage backend has no log", addr)
	}
	recs, err := cfg.Storage.Log().ReadRecords()
	if err != nil {
		return nil, fmt.Errorf("core: replay at %s: %w", addr, err)
	}
	n, err := p.newNode(addr, cfg, tr)
	if err != nil {
		return nil, err
	}
	if err := n.replayLog(recs); err != nil {
		return nil, fmt.Errorf("core: replay at %s: %w", addr, err)
	}
	return n, nil
}

// Accepts reports whether a node configured with cfg can be built from
// the program: its Keys and Events must be the ones compiled in.
func (p *Program) Accepts(cfg Config) bool { return p.checkConfig(cfg) == nil }

func (p *Program) checkConfig(cfg Config) error {
	if !p.sameKeys(cfg.Keys) {
		return fmt.Errorf("Config.Keys differ from the keys the program was compiled with")
	}
	if !p.sameEvents(cfg.Events) {
		return fmt.Errorf("Config.Events differ from the events the program was compiled with")
	}
	return nil
}

func (p *Program) sameKeys(keys map[string][]int) bool {
	if len(keys) != len(p.keys) {
		return false
	}
	for pred, cols := range keys {
		if compiled, ok := p.keys[pred]; !ok || !slices.Equal(cols, compiled) {
			return false
		}
	}
	return true
}

// sameEvents reports whether events names exactly the compiled event set
// (invokeSolver is always in it).
func (p *Program) sameEvents(events []string) bool {
	n := 1 // invokeSolver
	for i, e := range events {
		if !p.events[e] {
			return false
		}
		if e != InvokeSolverPred && !slices.Contains(events[:i], e) {
			n++
		}
	}
	return n == len(p.events)
}

// eventSet is the set of event predicates, invokeSolver always included.
func eventSet(events []string) map[string]bool {
	set := map[string]bool{InvokeSolverPred: true}
	for _, e := range events {
		set[e] = true
	}
	return set
}

// newNode builds and registers an instance without loading program facts.
func (p *Program) newNode(addr string, cfg Config, tr transport.Transport) (*Node, error) {
	if err := p.checkConfig(cfg); err != nil {
		return nil, fmt.Errorf("core: node %s: %w", addr, err)
	}
	n := &Node{
		Addr:             addr,
		prog:             p,
		cfg:              cfg,
		tr:               tr,
		tables:           make(map[string]*table, len(p.tables)),
		aggs:             map[int]*aggState{},
		lastMaterialized: map[string][]Tuple{},
		dirtyGroups:      map[int]bool{},
	}
	if cfg.Storage != nil {
		n.wal = cfg.Storage.Log()
	}
	for i := range p.tables {
		l := &p.tables[i]
		n.tables[l.name] = newTable(l.name, l.arity, l.keyCols, l.event)
	}
	n.repl.init()
	if tr != nil {
		tr.Register(addr, n.handleMessage)
	}
	return n, nil
}

// ruleJoinsEvent reports whether any body atom of r is an event table.
func (p *Program) ruleJoinsEvent(r *colog.Rule) bool {
	for _, l := range r.Body {
		if al, ok := l.(*colog.AtomLit); ok && p.isEvent(al.Atom.Pred) {
			return true
		}
	}
	return false
}
