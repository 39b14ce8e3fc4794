// Package metrics is the deterministic virtual-time metrics plane.
//
// An instrument keeps no number of its own: subsystems register
// func-backed counters and gauges (NewCounterFunc, NewGaugeFunc) over the
// ledgers that already count their events, and the fleet samples every
// instrument into a virtual-time series on window boundaries by calling
// MarkAll, which reads each function once. The rendered series (OpenMetrics
// text or JSONL) folds per-emitter samples in (virtual time, host, labels)
// order — the same discipline as obs.Merge — so it is byte-identical at
// any HostWorkers setting.
//
// A nil *Registry is valid everywhere: registration and marking are no-ops
// that allocate nothing, so unmetered runs pay zero overhead.
package metrics

import (
	"fmt"

	"sdm/internal/simclock"
)

// Kind is the instrument type.
type Kind int

const (
	KindCounter Kind = iota
	KindGauge
)

// String returns the OpenMetrics type name.
func (k Kind) String() string {
	switch k {
	case KindCounter:
		return "counter"
	case KindGauge:
		return "gauge"
	}
	return "unknown"
}

// Label is one fixed key=value pair attached to an instrument at
// registration (e.g. table="3", class="gold"). The emitting host is not a
// Label: it is the registry identity, rendered as host="N" for hosts and
// omitted for the front-end.
type Label struct {
	Key, Value string
}

// Desc names an instrument. Name is the metric family (snake_case, no
// _total/_count suffix — rendering adds those); instruments registered
// under the same Name on different registries (or with different Labels)
// are series of one family and must agree on Help and Unit.
type Desc struct {
	Name   string
	Help   string
	Unit   string
	Labels []Label
}

// mark is one sampled point of an instrument's series.
type mark struct {
	t simclock.Time
	// count carries counter values, value gauge values.
	count uint64
	value float64
}

// instrument is one registered series. It reads its value from its
// owner's ledger at mark time, so the existing deterministic counters are
// the update path — nothing to thread through hot loops.
type instrument struct {
	desc    Desc
	kind    Kind
	countFn func() uint64
	valueFn func(now simclock.Time) float64
	marks   []mark
}

// sample captures the instrument's current value at virtual time t.
// Marks must be issued in non-decreasing time order per registry;
// re-marking at the last marked time overwrites that point (the final
// end-of-run mark may coincide with a window boundary).
func (in *instrument) sample(t simclock.Time) {
	m := mark{t: t}
	if in.kind == KindCounter {
		m.count = in.countFn()
	} else {
		m.value = in.valueFn(t)
	}
	if n := len(in.marks); n > 0 {
		last := in.marks[n-1].t
		if t < last {
			return // out of order: drop rather than corrupt the series
		}
		if t == last {
			in.marks[n-1] = m
			return
		}
	}
	in.marks = append(in.marks, m)
}

// Registry holds the instruments of one emitter: a host (host >= 0) or
// the fleet front-end (host < 0). Registries are not internally locked —
// each emitter owns its registry and marks it on its own deterministic
// path (the host worker goroutine, or the sequential
// front-end loop).
type Registry struct {
	host  int
	insts []*instrument
}

// NewRegistry returns a registry for the given emitter. host < 0 means
// the fleet front-end.
func NewRegistry(host int) *Registry { return &Registry{host: host} }

func (r *Registry) add(d Desc, k Kind) *instrument {
	for _, in := range r.insts {
		if in.desc.Name == d.Name && labelsEqual(in.desc.Labels, d.Labels) {
			panic(fmt.Sprintf("metrics: duplicate instrument %s%s", d.Name, labelString(d.Labels)))
		}
	}
	in := &instrument{desc: d, kind: k}
	r.insts = append(r.insts, in)
	return in
}

// NewCounterFunc registers a counter whose value is read from fn at mark
// time. fn must be monotone non-decreasing in virtual time.
func (r *Registry) NewCounterFunc(d Desc, fn func() uint64) {
	if r == nil {
		return
	}
	r.add(d, KindCounter).countFn = fn
}

// NewGaugeFunc registers a gauge whose value is read from fn at mark
// time; fn receives the mark's virtual time.
func (r *Registry) NewGaugeFunc(d Desc, fn func(now simclock.Time) float64) {
	if r == nil {
		return
	}
	r.add(d, KindGauge).valueFn = fn
}

// MarkAll samples every instrument at virtual time t, appending one point
// to each series. Marks must be issued in non-decreasing time order.
func (r *Registry) MarkAll(t simclock.Time) {
	if r == nil {
		return
	}
	for _, in := range r.insts {
		in.sample(t)
	}
}

// ResetMarks clears every instrument's sampled series. Called at Run
// start so WriteMetrics renders the most recent run; the values themselves
// live in the ledgers the instruments read.
func (r *Registry) ResetMarks() {
	if r == nil {
		return
	}
	for _, in := range r.insts {
		in.marks = in.marks[:0]
	}
}

func labelsEqual(a, b []Label) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
