package main

import (
	"bufio"
	"encoding/json"
	"os"
	"path/filepath"
	"time"
)

// span is one timed interval at a layer boundary, recorded by the
// benchmark's own driver around its calls into the layer.
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // host ns since the pass began
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"` // index of the span that caused this one, -1 for a root
	Query  int    `json:"query"`  // the request every span of one query shares
}

// tracer keeps spans in memory until the pass ends. With on false begin and
// end do nothing, which is the untraced driver that trace.overhead_pct
// compares against.
type tracer struct {
	t0    time.Time
	on    bool
	spans []span
}

func newTracer() *tracer { return &tracer{t0: now()} }

// begin opens a span and returns its index (-1 when tracing is off).
func (t *tracer) begin(name string, parent, query int) int {
	if !t.on {
		return -1
	}
	t.spans = append(t.spans, span{Name: name, Parent: parent, Query: query})
	id := len(t.spans) - 1
	t.spans[id].Start = now().Sub(t.t0).Nanoseconds()
	return id
}

func (t *tracer) end(id int) {
	if id < 0 {
		return
	}
	t.spans[id].End = now().Sub(t.t0).Nanoseconds()
}

// selfTimes returns, per span, its duration minus the durations of the spans
// it caused (never below zero). Children are attributed through Parent, not
// through interval containment: the shadow core.pool_ops span runs after the
// serving.admit span it stands in for, and still counts as its child.
func selfTimes(spans []span) []int64 {
	self := make([]int64, len(spans))
	for i, s := range spans {
		self[i] += s.End - s.Start
		if s.Parent >= 0 {
			self[s.Parent] -= s.End - s.Start
		}
	}
	for i := range self {
		if self[i] < 0 {
			self[i] = 0
		}
	}
	return self
}

// durations collects the host µs of every span called name.
func durations(spans []span, name string) []float64 {
	var out []float64
	for _, s := range spans {
		if s.Name == name {
			out = append(out, float64(s.End-s.Start)/1e3)
		}
	}
	return out
}

// spansDir is where the traced pass writes its spans, relative to the
// repository root the benchmark is run from.
var spansDir = filepath.Join("bench", "out")

// writeSpans writes the spans as JSON lines under spansDir.
func writeSpans(workload string, spans []span) (string, error) {
	dir := spansDir
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, workload+".trace.jsonl")
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i := range spans {
		if err := enc.Encode(&spans[i]); err != nil {
			f.Close()
			return "", err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return "", err
	}
	return path, f.Close()
}
