// Fleet-side decision tracing: the front-end collects route and admit
// decisions, each host's adapter collects its plan verdicts, and the
// streams merge in virtual-time order after every Run — so a trace is
// bit-identical at any Config.HostWorkers, like the results it explains.
// Tracing never perturbs virtual time: a traced Run executes inline on the
// front-end, as under a Feedback() router (wall-clock only), and
// everything else is bookkeeping outside the simulated timeline.

package cluster

import (
	"errors"
	"fmt"
	"io"

	"sdm/internal/obs"
	"sdm/internal/simclock"
	"sdm/internal/workload"
)

// tracer is a fleet's live trace state.
type tracer struct {
	cfg   obs.Config
	fe    *obs.Collector   // front-end: route + admit decisions
	hosts []*obs.Collector // per-host: plan decisions

	// merged and summary describe the most recent completed Run.
	merged  []obs.Event
	summary obs.Summary
}

// SetTrace enables decision tracing at cfg.Level (LevelOff detaches — the
// zero-overhead default). CounterfactualK 0 selects min(2, hosts-1);
// values above hosts-1 are rejected rather than clamped. Call before Run;
// each Run resets the collected stream, so TraceEvents/WriteTrace expose
// the most recent Run's trace.
func (f *Fleet) SetTrace(cfg obs.Config) error {
	if cfg.Level == obs.LevelOff {
		f.trace = nil
		f.installTracers()
		return nil
	}
	if cfg.Level < obs.LevelOff || cfg.Level > obs.LevelCounterfactual {
		return fmt.Errorf("cluster: unknown trace level %d", int(cfg.Level))
	}
	maxK := len(f.members) - 1
	if cfg.CounterfactualK == 0 {
		cfg.CounterfactualK = 2
		if cfg.CounterfactualK > maxK {
			cfg.CounterfactualK = maxK
		}
	}
	if cfg.CounterfactualK < 0 || cfg.CounterfactualK > maxK {
		return fmt.Errorf("cluster: counterfactual k %d out of range [0, %d] for a %d-host fleet",
			cfg.CounterfactualK, maxK, len(f.members))
	}
	f.trace = &tracer{cfg: cfg, fe: obs.NewCollector(-1)}
	for i := range f.members {
		f.trace.hosts = append(f.trace.hosts, obs.NewCollector(i))
	}
	f.installTracers()
	return nil
}

// installTracers points each adapter at its host's plan collector (or
// detaches them when tracing is off). Called from both SetTrace and
// SetAdapters, so the two may be installed in either order.
func (f *Fleet) installTracers() {
	for i, a := range f.adapters {
		if a == nil {
			continue
		}
		if f.trace != nil && i < len(f.trace.hosts) {
			a.SetTracer(f.trace.hosts[i])
		} else {
			a.SetTracer(nil)
		}
	}
}

// TraceEvents returns the most recent completed Run's merged trace in
// virtual-time order (nil when tracing is off).
func (f *Fleet) TraceEvents() []obs.Event {
	if f.trace == nil {
		return nil
	}
	return f.trace.merged
}

// TraceSummary returns the most recent completed Run's trace aggregates.
func (f *Fleet) TraceSummary() (obs.Summary, bool) {
	if f.trace == nil {
		return obs.Summary{}, false
	}
	return f.trace.summary, true
}

// WriteTrace renders the most recent completed Run's trace as JSONL at
// the configured level.
func (f *Fleet) WriteTrace(w io.Writer) error {
	if f.trace == nil {
		return errors.New("cluster: tracing not enabled (SetTrace)")
	}
	return obs.WriteJSONL(w, f.trace.cfg.Level, f.trace.merged, f.trace.summary)
}

// traceReset drops the previous Run's stream at the start of a new one.
func (t *tracer) reset() {
	t.fe.Reset()
	for _, c := range t.hosts {
		c.Reset()
	}
	t.merged = nil
	t.summary = obs.Summary{}
}

// traceRoute makes the fleet's routing decision under tracing, records
// its row and returns the chosen host. A traced Run executes inline, so
// every routed query has finished and the Outstanding reads are race-free
// and deterministic.
func (f *Fleet) traceRoute(seq int, q workload.Query, at simclock.Time, view View) int {
	d := obs.RouteDecision{Seq: seq, User: q.UserID, Class: q.Class, Prev: f.prevHost(q.UserID)}
	id := f.router.RouteExplained(q, at, view, f.trace.cfg.CounterfactualK, &d)
	if id >= 0 && id < len(f.members) && f.members[id].alive {
		d.Outstanding = view.OutstandingAt(id, at)
		for i := range d.Alts {
			d.Alts[i].Outstanding = view.OutstandingAt(d.Alts[i].Host, at)
		}
		d.Diverted = f.diverts(d.Prev, id)
	}
	f.trace.fe.Route(at, d)
	return id
}

// traceAdmit records one admission decision.
func (f *Fleet) traceAdmit(t simclock.Time, class int, tokens float64, admitAt simclock.Time, ok bool) {
	d := obs.AdmitDecision{Class: class, Outcome: "admit", Tokens: tokens}
	switch {
	case !ok:
		d.Outcome = "shed"
	case admitAt > t:
		d.Outcome = "delay"
		d.DelaySeconds = (admitAt - t).Seconds()
	}
	f.trace.fe.Admit(t, d)
}

// traceFinalize closes out a Run's trace: the counterfactual pass (at
// LevelCounterfactual) enriches each routing row with its completed
// latency and the re-scored alternatives, then the per-emitter streams
// merge into virtual-time order and fold into the summary.
func (f *Fleet) traceFinalize(records []record) {
	t := f.trace
	if t.cfg.Level >= obs.LevelCounterfactual {
		f.counterfactual(records)
	}
	t.merged = obs.Merge(append([]*obs.Collector{t.fe}, t.hosts...)...)
	t.summary = obs.Summarize(t.cfg.Level, t.merged)
}

// counterfactual re-scores each routing decision's rejected alternatives
// at completion time. The estimator is a per-host EWMA of completed
// latencies folded in arrival order (the same order the decisions were
// made in), so an alternative's estimate only uses queries that arrived
// before this one — an honest "what would it have cost" — and the whole
// pass is a pure function of the records, independent of workers.
func (f *Fleet) counterfactual(records []record) {
	const alpha = 0.2
	ewma := make([]float64, len(f.members))
	seen := make([]bool, len(f.members))
	for _, ev := range f.trace.fe.Events() {
		if ev.Kind != "route" {
			continue
		}
		d := ev.Route
		if d.Seq < 0 || d.Seq >= len(records) {
			continue
		}
		rec := records[d.Seq]
		if !rec.ok {
			continue
		}
		lat := (rec.done - rec.arrive).Seconds()
		d.LatencySeconds = lat
		prevDone := false
		for _, a := range d.Alts {
			if a.Host < 0 || a.Host >= len(seen) || !seen[a.Host] {
				continue
			}
			cf := obs.Counterfactual{Host: a.Host, EstSeconds: ewma[a.Host], RegretSeconds: lat - ewma[a.Host]}
			if d.Diverted && a.Host == d.Prev {
				cf.Prev = true
				prevDone = true
			}
			d.Counterfactuals = append(d.Counterfactuals, cf)
		}
		if d.Diverted && !prevDone && d.Prev >= 0 && d.Prev < len(seen) && seen[d.Prev] {
			d.Counterfactuals = append(d.Counterfactuals, obs.Counterfactual{
				Host: d.Prev, EstSeconds: ewma[d.Prev], RegretSeconds: lat - ewma[d.Prev], Prev: true,
			})
		}
		if h := rec.host; h >= 0 && h < len(seen) {
			if !seen[h] {
				ewma[h], seen[h] = lat, true
			} else {
				ewma[h] = (1-alpha)*ewma[h] + alpha*lat
			}
		}
	}
}
