package main

import (
	"fmt"
	"math/rand"

	"repro/internal/colog"
	"repro/internal/serve"
)

// churnGen is the seeded ACloud churn generator: a stationary population of
// about target live VMs receiving CPU-reading updates (80%), spawns (10%)
// and stops (10%). Spawns and stops keep the population within one VM of
// target, so the COP a tick solves has the same size throughout a run and on
// every seed, and tick cost does not drift. They arrive clustered: six bursts in ten
// carry readings only, which the engine absorbs by patching the grounded
// model in place, and the others change the VM set, which re-grounds it from
// scratch. The median decision therefore takes the incremental path and the
// 90th percentile the full one.
type churnGen struct {
	rng    *rand.Rand
	target int
	live   []*genVM // live VMs in spawn order
	nextID int
}

type genVM struct {
	id       int
	cpu, mem int64
	burst    int   // last burst that touched this VM
	held     int64 // the reading the engine held when that burst began
}

func newChurnGen(seed int64, target int) *churnGen {
	return &churnGen{rng: rand.New(rand.NewSource(seed)), target: target}
}

func (g *churnGen) event(op serve.Op, vm *genVM) serve.Event {
	return serve.Event{Op: op, Pred: "vmRaw", Vals: []colog.Value{
		colog.StringVal(fmt.Sprintf("vm%d", vm.id)), colog.IntVal(vm.cpu), colog.IntVal(vm.mem),
	}}
}

func (g *churnGen) spawn(burst int) serve.Event {
	vm := &genVM{
		id:    g.nextID,
		cpu:   25 + g.rng.Int63n(70), // above the program's cpu_floor filter
		mem:   64 + g.rng.Int63n(128),
		burst: burst,
	}
	g.nextID++
	g.live = append(g.live, vm)
	return g.event(serve.OpInsert, vm)
}

// initial returns the spawn events of the starting population.
func (g *churnGen) initial() []serve.Event {
	events := make([]serve.Event, 0, g.target)
	for i := 0; i < g.target; i++ {
		events = append(events, g.spawn(-1))
	}
	return events
}

// burst returns the next n churn events; b numbers the burst. A VM touched
// earlier in the same burst is never stopped in it: the admission queue
// coalesces same-key events, and a stop must retract the tuple the engine
// holds, not one a coalesced update never delivered.
func (g *churnGen) burst(b, n int) []serve.Event {
	events := make([]serve.Event, 0, n)
	quiet := g.rng.Intn(10) < 6
	for len(events) < n {
		// A quarter spawns and a quarter stops in four bursts of ten make a
		// tenth each of all events.
		r := g.rng.Intn(4)
		spawn := !quiet && (r == 0 && len(g.live) <= g.target || len(g.live) < g.target-1)
		stop := !quiet && (r == 1 && len(g.live) >= g.target || len(g.live) > g.target+1)
		if spawn {
			events = append(events, g.spawn(b))
			continue
		}
		if stop {
			if i := g.untouched(b); i >= 0 {
				vm := g.live[i]
				g.live = append(g.live[:i], g.live[i+1:]...)
				events = append(events, g.event(serve.OpDelete, vm))
				continue
			}
		}
		// A reading always differs from the one the engine holds (the last
		// of an earlier burst; readings within a burst coalesce to the
		// latest): inserting the same tuple twice would count it twice, and
		// the one retraction a stop sends would then leave the VM behind,
		// growing the COP tick by tick.
		vm := g.live[g.rng.Intn(len(g.live))]
		if vm.burst != b {
			vm.held = vm.cpu
		}
		next := vm.cpu
		for next == vm.cpu || next == vm.held {
			next = 25 + g.rng.Int63n(70)
		}
		vm.cpu = next
		vm.burst = b
		events = append(events, g.event(serve.OpInsert, vm))
	}
	return events
}

// untouched picks a live VM burst b has not touched yet, or -1.
func (g *churnGen) untouched(b int) int {
	var free []int
	for i, vm := range g.live {
		if vm.burst != b {
			free = append(free, i)
		}
	}
	if len(free) == 0 {
		return -1
	}
	return free[g.rng.Intn(len(free))]
}
