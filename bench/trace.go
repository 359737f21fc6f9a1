package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// span is one interval of work at a layer boundary. Spans of one operation
// share Op; Parent is the ID of the span that caused this one (0 for the
// operation's root). Attributed marks a span whose duration the program
// reported (SolveResult.GroundWall, EpochStats.ExecWall, ...) rather than
// one the benchmark clocked itself: its length is measured, its placement
// inside the parent is nominal.
type span struct {
	ID         int    `json:"id"`
	Parent     int    `json:"parent"`
	Op         int    `json:"op"`
	Name       string `json:"name"`
	StartNs    int64  `json:"start_ns"`
	EndNs      int64  `json:"end_ns"`
	Attributed bool   `json:"attributed,omitempty"`
}

// tracer keeps spans in memory until the run ends. The benchmark records
// them around its calls into each layer's public functions; nothing inside
// the program is instrumented.
type tracer struct {
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

func (t *tracer) add(op, parent int, name string, start, end time.Time) int {
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{
		ID: id, Parent: parent, Op: op, Name: name,
		StartNs: start.Sub(t.t0).Nanoseconds(), EndNs: end.Sub(t.t0).Nanoseconds(),
	})
	return id
}

// attribute records a child whose duration the program reported, laid end
// to end after the parent's previous attributed children.
func (t *tracer) attribute(op, parent int, name string, after time.Time, d time.Duration) (int, time.Time) {
	end := after.Add(d)
	id := t.add(op, parent, name, after, end)
	t.spans[id-1].Attributed = true
	return id, end
}

// layerTime is the summed duration and self time of every span of one name.
type layerTime struct {
	Name   string  `json:"name"`
	Count  int     `json:"count"`
	WallMs float64 `json:"wall_ms"`
	SelfMs float64 `json:"self_ms"`
}

// selfTimes folds the spans by name. A span's self time is its duration
// minus the duration of its direct children. Attributed children can add up
// to more than one parent's wall (two workers overlap; a twin node is not
// the server), so self times are summed signed and floored at zero per name,
// which keeps the noise of single spans from adding up.
func (t *tracer) selfTimes() []layerTime {
	children := make([]int64, len(t.spans)+1)
	for _, s := range t.spans {
		children[s.Parent] += s.EndNs - s.StartNs
	}
	byName := map[string]*layerTime{}
	var order []string
	for _, s := range t.spans {
		lt := byName[s.Name]
		if lt == nil {
			lt = &layerTime{Name: s.Name}
			byName[s.Name] = lt
			order = append(order, s.Name)
		}
		d := s.EndNs - s.StartNs
		lt.Count++
		lt.WallMs += float64(d) / 1e6
		lt.SelfMs += float64(d-children[s.ID]) / 1e6
	}
	sort.Strings(order)
	out := make([]layerTime, 0, len(order))
	for _, name := range order {
		lt := *byName[name]
		lt.SelfMs = max(lt.SelfMs, 0)
		out = append(out, lt)
	}
	return out
}

// traceFile is what a traced run writes to bench/out/<workload>.trace.json.
type traceFile struct {
	Workload string      `json:"workload"`
	Seed     int64       `json:"seed"`
	Env      environment `json:"env"`
	Layers   []layerTime `json:"layers"`
	Spans    []span      `json:"spans"`
}

func (t *tracer) write(path string, tf traceFile) error {
	tf.Layers = t.selfTimes()
	tf.Spans = t.spans
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	data, err := json.Marshal(tf)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
