package cluster

import (
	"fmt"
	"io"
	"slices"

	"sdm/internal/obs"
	"sdm/internal/serving"
	"sdm/internal/simclock"
	"sdm/internal/stats"
)

// HostResult summarizes one replica's share of a fleet run.
type HostResult struct {
	ID      int
	Alive   bool
	Queries int
	Latency *stats.Histogram
	// AchievedQPS is this host's throughput over the fleet's elapsed
	// virtual time, so the per-host numbers sum to the fleet's.
	AchievedQPS float64
	// HitRate is the row-cache hit rate over this run's queries only.
	HitRate       float64
	PooledHitRate float64
	// FMServedRate is the fraction of store lookups served from fast
	// memory (cache hits + FM-direct) — the placement-aware hit metric.
	// RangeServedRate is the share contributed by FM-resident row ranges
	// (partial-table promotions).
	FMServedRate    float64
	RangeServedRate float64
	SMReads         uint64
	// SMWriteBytes is the SM media bytes this run's migrations wrote on
	// the host (endurance spend); LifetimeSMWrites the host's cumulative
	// device writes including model load, and DWPDUtil the drive-writes-
	// per-day utilization the run's write rate projects to (1.0 = writing
	// at exactly the device's rated DWPD).
	SMWriteBytes     uint64
	LifetimeSMWrites uint64
	DWPDUtil         float64
}

// WindowStat aggregates one equal-width virtual-time window of the run —
// the time series the warmup-spike analysis reads.
type WindowStat struct {
	Start, End simclock.Time
	Queries    int
	MeanLat    float64 // seconds
	P99        float64 // seconds
	MaxLat     float64 // seconds — catches sub-window bursts p99 dilutes away
	HitRate    float64
	FMRate     float64 // FM-served fraction of store lookups
	RangeRate  float64 // fraction served by FM-resident row ranges
	SMPerQuery float64
	// SMWriteBytes is the SM media bytes written in the window —
	// migration wear becomes visible as per-window write bursts.
	SMWriteBytes uint64
}

// ClassResult is one SLO class's share of a fleet run: offered versus
// shed counts from admission control, queue-admission delay, and the
// admitted queries' latency tail (p50/p99/p999).
type ClassResult struct {
	Class int
	// Name is the admission config's label for the class ("class<i>"
	// when unnamed or unconfigured).
	Name string
	// Offered counts the class's arrivals; Shed the ones admission
	// rejected (never routed); Delayed the ones a queue-mode bucket
	// admitted late, with MeanDelay their mean admission delay in
	// seconds.
	Offered   int
	Shed      int
	Delayed   int
	MeanDelay float64
	// Latency is the admitted queries' latency histogram.
	Latency *stats.Histogram
}

// ShedShare returns the class's rejected fraction.
func (c ClassResult) ShedShare() float64 {
	if c.Offered == 0 {
		return 0
	}
	return float64(c.Shed) / float64(c.Offered)
}

// Result is the outcome of one Fleet.Run.
type Result struct {
	Policy     string
	OfferedQPS float64
	Queries    int
	Start, End simclock.Time

	// Fleet-wide aggregates.
	Latency         *stats.Histogram
	AchievedQPS     float64
	HitRate         float64
	FMServedRate    float64
	RangeServedRate float64
	// SMWriteBytes sums the run's SM media writes across hosts (the
	// fleet's endurance spend) and DWPDUtil is the fleet-wide projected
	// drive-writes-per-day utilization at the run's write rate.
	SMWriteBytes uint64
	DWPDUtil     float64

	// Shed counts the queries admission control rejected fleet-wide
	// (Queries includes them; Latency and the rate metrics do not).
	Shed int
	// LoadFairness is the Jain fairness index of the per-host routed
	// query counts over alive hosts (1 = perfectly even).
	LoadFairness float64
	// ClassFairness is the Jain fairness index of the per-class admitted
	// shares (admitted/offered); 0 when the run tracked no classes.
	ClassFairness float64
	// Classes is the per-SLO-class breakdown, populated when the run saw
	// more than one class or admission control was installed.
	Classes []ClassResult

	Hosts   []HostResult
	Windows []WindowStat

	// Trace aggregates the run's decision trace (nil when tracing is
	// off); the full event stream is Fleet.TraceEvents/WriteTrace.
	Trace *obs.Summary

	// Drift drill outputs, populated for the Run in which a scheduled
	// hot-set rotation fired (DriftFired): the rotation instant, for
	// reading the Windows time series relative to it.
	DriftFired bool
	DriftAt    simclock.Time

	// Failure scenario outputs, populated only for the Run in which the
	// kill actually fired (FailedHost < 0 otherwise — later Runs keep the
	// host dead but are not failure drills themselves).
	FailedHost    int
	FailTime      simclock.Time
	ReroutedUsers int
	// WarmupSpike is the post-failure/pre-failure mean-latency ratio for
	// the rerouted users' queries (0 without a failure): after the kill,
	// their traffic lands on survivors whose caches are cold for them, so
	// their latency spikes until the caches re-warm (§A.4). Fleet-wide
	// numbers dilute the effect — the globally hot rows are cached on
	// every replica — so the metric follows the affected users.
	WarmupSpike float64
	// WarmupHitDrop is the rerouted users' row-cache hit-rate drop
	// (pre-failure on their home host − post-failure on the survivors).
	WarmupHitDrop float64
}

// tally is one population's share of a run — a host's, a class's, a
// window's, or the rerouted users' side of a failure: its completed
// queries, their latency histogram and their summed cache-counter delta.
type tally struct {
	queries int
	lat     stats.Histogram
	delta   serving.CacheSnapshot
}

// reuse returns ts resized to n empty tallies; slots within the capacity
// keep their histogram storage (Reset).
func reuse(ts []tally, n int) []tally {
	ts = slices.Grow(ts[:0], n)[:n]
	for i := range ts {
		ts[i] = tally{lat: ts[i].lat}
		ts[i].lat.Reset()
	}
	return ts
}

func (t *tally) add(lat float64, delta serving.CacheSnapshot) {
	t.queries++
	t.lat.Observe(lat)
	t.delta = t.delta.Add(delta)
}

// window derives the WindowStat of [lo, hi) from t; an empty window keeps
// its zero stats.
func (t *tally) window(lo, hi simclock.Time) WindowStat {
	w := WindowStat{Start: lo, End: hi}
	if t.queries > 0 {
		w.Queries = t.queries
		w.MeanLat = t.lat.Mean()
		w.P99 = t.lat.P99()
		w.MaxLat = t.lat.Max()
		w.HitRate = t.delta.HitRate()
		w.FMRate = t.delta.FMServedRate()
		w.RangeRate = t.delta.RangeServedRate()
		w.SMPerQuery = float64(t.delta.SMReads) / float64(t.queries)
		w.SMWriteBytes = t.delta.SMWriteBytes
	}
	return w
}

// runFold is a run's records folded once (see fold). The fleet refills one
// every Run, keeping its tallies' storage; a Result holds Compact copies.
type runFold struct {
	hosts, classes []tally
	// windows cover arrivals in [start, end], width apart; the last is
	// widened to include end. None on a degenerate span.
	windows           []tally
	start, end, width simclock.Time
	// split[0] holds the rerouted users' queries arriving before the
	// failure, split[1] the rest; empty unless a failure fired.
	split    []tally
	lastDone simclock.Time
	total    stats.Histogram // the host tallies merged in host order (aggregate)
}

// fold makes the one pass over a Run's records, in index order: each
// completed record is added to the tally of its host, of its class (when
// classes > 0), of its Config.Windows arrival window over [start, end],
// and — when fired — of the rerouted users' pre- or post-failure side.
// Every per-host, per-class, per-window and warm-up number of the Result
// derives from these tallies, so none depends on execution interleaving.
func (f *Fleet) fold(records []record, start, end simclock.Time, classes int, fired bool) *runFold {
	rf := &f.tallies
	*rf = runFold{hosts: reuse(rf.hosts, len(f.members)), classes: reuse(rf.classes, classes),
		windows: rf.windows[:0], split: rf.split[:0], start: start, end: end, total: rf.total}
	// No windows when the span is narrower than one ns per window.
	if n := simclock.Time(f.cfg.Windows); n > 0 && end-start >= n {
		rf.windows, rf.width = reuse(rf.windows, int(n)), (end-start)/n
	}
	if fired {
		rf.split = reuse(rf.split, 2)
	}
	for i := range records {
		r := &records[i]
		if !r.ok {
			continue
		}
		lat := (r.done - r.arrive).Seconds()
		rf.hosts[r.host].add(lat, r.delta)
		if r.class >= 0 && r.class < classes {
			rf.classes[r.class].add(lat, r.delta)
		}
		// Queue-mode admission can push an arrival past the last generated
		// arrival instant; such records fall outside every window.
		if len(rf.windows) > 0 && r.arrive >= start && r.arrive <= end {
			w := min(int((r.arrive-start)/rf.width), len(rf.windows)-1)
			rf.windows[w].add(lat, r.delta)
		}
		if fired {
			if _, hit := f.rerouted[r.user]; hit {
				side := 0
				if r.arrive >= f.failedAt {
					side = 1
				}
				rf.split[side].add(lat, r.delta)
			}
		}
		rf.lastDone = max(rf.lastDone, r.done)
	}
	return rf
}

// windowStats derives Result.Windows from the window tallies (nil on a
// degenerate span) and marks each on the meter's window gauges, so the
// Result and the exported series come from the same tallies.
func (rf *runFold) windowStats(mt *meter) []WindowStat {
	if len(rf.windows) == 0 {
		return nil
	}
	out := make([]WindowStat, len(rf.windows))
	for i := range rf.windows {
		lo := rf.start + simclock.Time(i)*rf.width
		hi := lo + rf.width
		if i == len(rf.windows)-1 {
			hi = rf.end + 1 // include the final arrival
		}
		out[i] = rf.windows[i].window(lo, hi)
		mt.markWindow(out[i], rf.windows[i].lat.P50())
	}
	return out
}

// aggregate folds the per-query records into a Result. fired reports
// whether the armed host kill executed during this Run; drifted whether
// the armed hot-set rotation did.
func (f *Fleet) aggregate(qps float64, start, lastArrival simclock.Time, records []record, fired, drifted bool) *Result {
	res := &Result{
		Policy:     f.router.Name(),
		OfferedQPS: qps,
		Queries:    len(records),
		Start:      start,
		FailedHost: -1,
	}
	if drifted {
		res.DriftFired = true
		res.DriftAt = f.driftAt
	}
	// Per-SLO-class breakdown: populated when the run saw multiple
	// classes or admission control was installed.
	nc := 0
	if len(f.classes) > 1 || f.admission != nil {
		nc = max(len(f.classes), 1)
	}
	if fired {
		res.FailedHost = f.failed
		res.FailTime = f.failedAt
		res.ReroutedUsers = len(f.rerouted)
	}
	rf := f.fold(records, start, lastArrival, nc, fired)
	end := max(lastArrival, rf.lastDone)
	res.End = end
	// Close every live metrics series with the final counter values; any
	// worker goroutines have joined, so the single-threaded mark is safe.
	f.meter.finalLive(end)
	elapsed := (end - start).Seconds()

	// Fleet latency is the host-order merge of the host histograms —
	// identical to observing every sample, and the order fixes the float
	// sum's bits.
	rf.total.Reset()
	var fleetDelta serving.CacheSnapshot
	for i := range rf.hosts {
		rf.total.Merge(&rf.hosts[i].lat)
		fleetDelta = fleetDelta.Add(rf.hosts[i].delta)
	}
	res.Latency = rf.total.Compact()
	if elapsed > 0 {
		res.AchievedQPS = float64(res.Latency.Count()) / elapsed
	}
	res.HitRate = fleetDelta.HitRate()
	res.FMServedRate = fleetDelta.FMServedRate()
	res.RangeServedRate = fleetDelta.RangeServedRate()
	res.SMWriteBytes = fleetDelta.SMWriteBytes
	// Wear observability: per-host endurance spend and the DWPD
	// utilization the run's write rate projects to.
	elapsedDays := elapsed / 86400
	var fleetDailyBudget float64
	loads := make([]float64, 0, len(f.members))
	res.Hosts = make([]HostResult, len(f.members))
	for i, m := range f.members {
		t := &rf.hosts[i]
		d := t.delta
		h := HostResult{
			ID: i, Alive: m.alive, Queries: t.queries, Latency: t.lat.Compact(),
			HitRate: d.HitRate(), FMServedRate: d.FMServedRate(), RangeServedRate: d.RangeServedRate(),
			SMReads: d.SMReads, SMWriteBytes: d.SMWriteBytes,
		}
		if ph := d.PooledHits + d.PooledMisses; ph > 0 {
			h.PooledHitRate = float64(d.PooledHits) / float64(ph)
		}
		if elapsed > 0 {
			h.AchievedQPS = float64(h.Queries) / elapsed
		}
		if s := m.host.Store(); s != nil {
			w := s.Wear()
			h.LifetimeSMWrites = w.BytesWritten
			if elapsedDays > 0 {
				h.DWPDUtil = w.DWPDUtil(float64(d.SMWriteBytes) / elapsedDays)
			}
			fleetDailyBudget += w.DWPD * float64(w.CapacityBytes)
		}
		if m.alive {
			loads = append(loads, float64(h.Queries))
		}
		res.Hosts[i] = h
	}
	if fleetDailyBudget > 0 && elapsedDays > 0 {
		res.DWPDUtil = float64(res.SMWriteBytes) / elapsedDays / fleetDailyBudget
	}
	// Routed-load fairness over alive hosts (the per-host-load Jain index).
	res.LoadFairness = stats.JainFairness(loads)

	if nc > 0 {
		classes := make([]ClassResult, nc)
		shares := make([]float64, 0, nc)
		for c := range classes {
			cr := ClassResult{Class: c, Name: fmt.Sprintf("class%d", c), Latency: rf.classes[c].lat.Compact()}
			if f.admission != nil {
				cr.Name = f.admission.cfg.className(c)
			}
			if c < len(f.classes) {
				l := f.classes[c]
				cr.Offered, cr.Shed, cr.Delayed = l.offered, l.shed, l.delayed
				if l.delayed > 0 {
					cr.MeanDelay = l.delay / float64(l.delayed)
				}
				res.Shed += l.shed
			}
			if cr.Offered > 0 {
				shares = append(shares, float64(cr.Offered-cr.Shed)/float64(cr.Offered))
			}
			classes[c] = cr
		}
		res.ClassFairness = stats.JainFairness(shares)
		res.Classes = classes
	}

	if f.trace != nil {
		sum := f.trace.summary
		res.Trace = &sum
	}

	res.Windows = rf.windowStats(f.meter)
	if fired {
		// The rerouted users' own latency and hit rate before and after
		// the kill: the population whose caches actually went cold.
		pre, post := &rf.split[0], &rf.split[1]
		if pre.queries > 0 && post.queries > 0 {
			if m := pre.lat.Mean(); m > 0 {
				res.WarmupSpike = post.lat.Mean() / m
			}
			res.WarmupHitDrop = pre.delta.HitRate() - post.delta.HitRate()
		}
	}
	return res
}

// String renders one SLO class's share of the run.
func (c ClassResult) String() string {
	return fmt.Sprintf("%s offered=%d shed=%d delayed=%d delay=%.6f p50=%.6f p99=%.6f p999=%.6f",
		c.Name, c.Offered, c.Shed, c.Delayed, c.MeanDelay,
		c.Latency.P50(), c.Latency.P99(), c.Latency.P999())
}

// String renders the fleet headline.
func (r *Result) String() string {
	return fmt.Sprintf("%s: qps=%.0f/%.0f p50=%.2fms p95=%.2fms p99=%.2fms hit=%.1f%%",
		r.Policy, r.AchievedQPS, r.OfferedQPS,
		r.Latency.P50()*1e3, r.Latency.P95()*1e3, r.Latency.P99()*1e3,
		r.HitRate*100)
}

// Print renders the full per-host and window breakdown.
func (r *Result) Print(w io.Writer) {
	fmt.Fprintf(w, "policy=%s offered=%.0f achieved=%.0f queries=%d hit=%.1f%%\n",
		r.Policy, r.OfferedQPS, r.AchievedQPS, r.Queries, r.HitRate*100)
	fmt.Fprintf(w, "fleet latency: p50=%.2fms p95=%.2fms p99=%.2fms\n",
		r.Latency.P50()*1e3, r.Latency.P95()*1e3, r.Latency.P99()*1e3)
	fmt.Fprintf(w, "%-6s %-6s %8s %8s %10s %10s %10s\n",
		"host", "alive", "queries", "qps", "p99(ms)", "hit%", "smReads")
	for _, h := range r.Hosts {
		fmt.Fprintf(w, "%-6d %-6t %8d %8.0f %10.2f %10.1f %10d\n",
			h.ID, h.Alive, h.Queries, h.AchievedQPS, h.Latency.P99()*1e3, h.HitRate*100, h.SMReads)
	}
	if len(r.Windows) > 0 {
		fmt.Fprintf(w, "%-10s %8s %10s %10s %10s %8s %8s\n",
			"window", "queries", "mean(ms)", "p99(ms)", "hit%", "fm%", "sm/qry")
		for i, win := range r.Windows {
			fmt.Fprintf(w, "w%-9d %8d %10.2f %10.2f %10.1f %8.1f %8.1f\n",
				i, win.Queries, win.MeanLat*1e3, win.P99*1e3, win.HitRate*100, win.FMRate*100, win.SMPerQuery)
		}
	}
	if len(r.Classes) > 0 {
		fmt.Fprintf(w, "admission: shed %d/%d (%.1f%%), host-load Jain=%.3f, class-share Jain=%.3f\n",
			r.Shed, r.Queries, 100*float64(r.Shed)/float64(r.Queries), r.LoadFairness, r.ClassFairness)
		fmt.Fprintf(w, "%-10s %8s %8s %8s %10s %10s %10s %10s\n",
			"class", "offered", "shed", "delayed", "delay(ms)", "p50(ms)", "p99(ms)", "p999(ms)")
		for _, c := range r.Classes {
			fmt.Fprintf(w, "%-10s %8d %8d %8d %10.2f %10.2f %10.2f %10.2f\n",
				c.Name, c.Offered, c.Shed, c.Delayed, c.MeanDelay*1e3,
				c.Latency.P50()*1e3, c.Latency.P99()*1e3, c.Latency.P999()*1e3)
		}
	}
	if r.SMWriteBytes > 0 {
		var lifetime uint64
		for _, h := range r.Hosts {
			lifetime += h.LifetimeSMWrites
		}
		fmt.Fprintf(w, "wear: %.2f MB SM writes this run (lifetime %.2f MB), projected DWPD utilization %.3f\n",
			float64(r.SMWriteBytes)/(1<<20), float64(lifetime)/(1<<20), r.DWPDUtil)
	}
	if r.Trace != nil {
		s := r.Trace
		fmt.Fprintf(w, "trace[%s]: routes=%d diversions=%d (%.1f%%) admits=%d sheds=%d delays=%d plan=+%d/-%d defer=%d (busy %d, cap %d)\n",
			s.Level, s.Routes, s.Diversions, 100*s.DiversionRate(),
			s.Admits, s.Sheds, s.Delays, s.Promotes, s.Demotes, s.Defers, s.DeferBusy, s.DeferCap)
		if s.CFRows > 0 || s.DivertedCFRows > 0 {
			fmt.Fprintf(w, "counterfactual: regret vs runner-up %+.3fms over %d rows; vs sticky host %+.3fms over %d diverted rows\n",
				s.RegretRunnerUpSeconds*1e3, s.CFRows, s.RegretPrevSeconds*1e3, s.DivertedCFRows)
		}
	}
	if r.DriftFired {
		fmt.Fprintf(w, "drift: hot-set rotation at t=%.2fs\n", r.DriftAt.Seconds())
	}
	if r.FailedHost >= 0 {
		fmt.Fprintf(w, "failure: host %d at t=%.2fs, rerouted users=%d, warmup spike=%.2fx, hit drop=%.1fpp\n",
			r.FailedHost, r.FailTime.Seconds(), r.ReroutedUsers, r.WarmupSpike, r.WarmupHitDrop*100)
	}
}
