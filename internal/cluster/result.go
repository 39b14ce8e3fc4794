package cluster

import (
	"fmt"
	"io"

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

// aggregate folds the per-query records into a Result in index order, so
// every derived number is independent of execution interleaving. fired
// reports whether the armed host kill executed during this Run; drifted
// whether the armed hot-set rotation did.
func (f *Fleet) aggregate(qps float64, start, lastArrival simclock.Time, records []record, fired, drifted bool) *Result {
	res := &Result{
		Policy:     f.router.Name(),
		OfferedQPS: qps,
		Queries:    len(records),
		Start:      start,
		Latency:    stats.NewHistogram(),
		FailedHost: -1,
	}
	if fired {
		res.FailedHost = f.failed
		res.FailTime = f.failedAt
	}
	if drifted {
		res.DriftFired = true
		res.DriftAt = f.driftAt
	}
	hosts := make([]HostResult, len(f.members))
	hostDelta := make([]serving.CacheSnapshot, len(f.members))
	for i, m := range f.members {
		hosts[i] = HostResult{ID: i, Alive: m.alive, Latency: stats.NewHistogram()}
	}

	end := lastArrival
	var fleetDelta serving.CacheSnapshot
	for _, r := range records {
		if !r.ok {
			continue
		}
		lat := (r.done - r.arrive).Seconds()
		hosts[r.host].Queries++
		hosts[r.host].Latency.Observe(lat)
		hostDelta[r.host] = hostDelta[r.host].Add(r.delta)
		fleetDelta = fleetDelta.Add(r.delta)
		if r.done > end {
			end = r.done
		}
	}
	// Fleet latency is the bucket-wise merge of the per-host histograms —
	// identical to observing every sample, without the re-observation.
	for i := range hosts {
		res.Latency.Merge(hosts[i].Latency)
	}
	res.End = end
	// Close every live metrics series with the final counter values; any
	// worker goroutines have joined, so the single-threaded mark is safe.
	f.meter.finalLive(end)
	elapsed := (end - start).Seconds()
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
	for i := range hosts {
		d := hostDelta[i]
		hosts[i].HitRate = d.HitRate()
		if ph := d.PooledHits + d.PooledMisses; ph > 0 {
			hosts[i].PooledHitRate = float64(d.PooledHits) / float64(ph)
		}
		hosts[i].FMServedRate = d.FMServedRate()
		hosts[i].RangeServedRate = d.RangeServedRate()
		hosts[i].SMReads = d.SMReads
		hosts[i].SMWriteBytes = d.SMWriteBytes
		if elapsed > 0 {
			hosts[i].AchievedQPS = float64(hosts[i].Queries) / elapsed
		}
		if s := f.members[i].host.Store(); s != nil {
			w := s.Wear()
			hosts[i].LifetimeSMWrites = w.BytesWritten
			if elapsedDays > 0 {
				hosts[i].DWPDUtil = w.DWPDUtil(float64(d.SMWriteBytes) / elapsedDays)
			}
			fleetDailyBudget += w.DWPD * float64(w.CapacityBytes)
		}
	}
	if fleetDailyBudget > 0 && elapsedDays > 0 {
		res.DWPDUtil = float64(res.SMWriteBytes) / elapsedDays / fleetDailyBudget
	}
	res.Hosts = hosts

	// Routed-load fairness over alive hosts (the per-host-load Jain index).
	var loads []float64
	for i := range hosts {
		if f.members[i].alive {
			loads = append(loads, float64(hosts[i].Queries))
		}
	}
	res.LoadFairness = stats.JainFairness(loads)

	// Per-SLO-class breakdown: populated when the run saw multiple
	// classes or admission control was installed.
	if len(f.classOffered) > 1 || f.admission != nil {
		nc := len(f.classOffered)
		if nc == 0 {
			nc = 1
		}
		classes := make([]ClassResult, nc)
		for c := range classes {
			classes[c] = ClassResult{Class: c, Name: fmt.Sprintf("class%d", c), Latency: stats.NewHistogram()}
			if f.admission != nil {
				classes[c].Name = f.admission.cfg.className(c)
			}
			if c < len(f.classOffered) {
				classes[c].Offered = f.classOffered[c]
			}
			if c < len(f.classShed) {
				classes[c].Shed = f.classShed[c]
				res.Shed += f.classShed[c]
			}
			if c < len(f.classDelayed) && f.classDelayed[c] > 0 {
				classes[c].Delayed = f.classDelayed[c]
				classes[c].MeanDelay = f.classDelay[c] / float64(f.classDelayed[c])
			}
		}
		for _, r := range records {
			if r.ok && r.class >= 0 && r.class < nc {
				classes[r.class].Latency.Observe((r.done - r.arrive).Seconds())
			}
		}
		var shares []float64
		for _, c := range classes {
			if c.Offered > 0 {
				shares = append(shares, float64(c.Offered-c.Shed)/float64(c.Offered))
			}
		}
		res.ClassFairness = stats.JainFairness(shares)
		res.Classes = classes
	}

	if f.trace != nil {
		sum := f.trace.summary
		res.Trace = &sum
	}

	res.Windows = f.deriveWindows(records, start, lastArrival, f.cfg.Windows)
	if fired {
		res.ReroutedUsers = len(f.rerouted)
		pre, post := affectedSplit(records, f.rerouted, f.failedAt)
		if pre.Queries > 0 && post.Queries > 0 {
			if pre.MeanLat > 0 {
				res.WarmupSpike = post.MeanLat / pre.MeanLat
			}
			res.WarmupHitDrop = pre.HitRate - post.HitRate
		}
	}
	return res
}

// affectedSplit aggregates the rerouted users' queries before and after
// the failure instant — the population whose caches actually went cold.
func affectedSplit(records []record, rerouted map[int64]struct{}, failedAt simclock.Time) (pre, post WindowStat) {
	preLat, postLat := stats.NewHistogram(), stats.NewHistogram()
	var preDelta, postDelta serving.CacheSnapshot
	for _, r := range records {
		if !r.ok {
			continue
		}
		if _, hit := rerouted[r.user]; !hit {
			continue
		}
		if r.arrive < failedAt {
			pre.Queries++
			preLat.Observe((r.done - r.arrive).Seconds())
			preDelta = preDelta.Add(r.delta)
		} else {
			post.Queries++
			postLat.Observe((r.done - r.arrive).Seconds())
			postDelta = postDelta.Add(r.delta)
		}
	}
	pre.MeanLat, pre.P99, pre.HitRate = preLat.Mean(), preLat.P99(), preDelta.HitRate()
	post.MeanLat, post.P99, post.HitRate = postLat.Mean(), postLat.P99(), postDelta.HitRate()
	return pre, post
}

// deriveWindows buckets records into n equal arrival-time windows in one
// pass over the records (index order, so every per-window number is
// independent of execution interleaving). The same derived samples mark
// the metrics plane's per-window instruments when one is attached —
// Result.Windows and the exported series come from a single
// accumulation instead of parallel bookkeeping.
func (f *Fleet) deriveWindows(records []record, start, end simclock.Time, n int) []WindowStat {
	if n <= 0 || end <= start {
		return nil
	}
	width := (end - start) / simclock.Time(n)
	if width <= 0 {
		return nil
	}
	type windowAccum struct {
		queries int
		lat     *stats.Histogram
		delta   serving.CacheSnapshot
	}
	accs := make([]windowAccum, n)
	for i := range accs {
		accs[i].lat = stats.NewHistogram()
	}
	for _, r := range records {
		// Queue-mode admission can push an arrival past the last
		// generated arrival instant; such records fall outside every
		// window (the final window's [lo, end] range ends at the run's
		// last generated arrival).
		if !r.ok || r.arrive < start || r.arrive > end {
			continue
		}
		idx := int((r.arrive - start) / width)
		if idx >= n {
			idx = n - 1 // the remainder region belongs to the final window
		}
		a := &accs[idx]
		a.queries++
		a.lat.Observe((r.done - r.arrive).Seconds())
		a.delta = a.delta.Add(r.delta)
	}
	out := make([]WindowStat, 0, n)
	for i := range accs {
		lo := start + simclock.Time(i)*width
		hi := lo + width
		if i == n-1 {
			hi = end + 1 // include the final arrival
		}
		w := WindowStat{Start: lo, End: hi}
		a := &accs[i]
		if a.queries > 0 {
			w.Queries = a.queries
			w.MeanLat = a.lat.Mean()
			w.P99 = a.lat.P99()
			w.MaxLat = a.lat.Max()
			w.HitRate = a.delta.HitRate()
			w.FMRate = a.delta.FMServedRate()
			w.RangeRate = a.delta.RangeServedRate()
			w.SMPerQuery = float64(a.delta.SMReads) / float64(w.Queries)
			w.SMWriteBytes = a.delta.SMWriteBytes
		}
		f.meter.markWindow(w, a.lat.P50())
		out = append(out, w)
	}
	return out
}

// String renders one host's share of the run.
func (h HostResult) String() string {
	return fmt.Sprintf("host%d alive=%t q=%d qps=%.3f p99=%.6f hit=%.4f fm=%.4f rng=%.4f sm=%d smW=%d dwpd=%.6f",
		h.ID, h.Alive, h.Queries, h.AchievedQPS, h.Latency.P99(), h.HitRate, h.FMServedRate, h.RangeServedRate,
		h.SMReads, h.SMWriteBytes, h.DWPDUtil)
}

// String renders one window of the run's time series.
func (w WindowStat) String() string {
	return fmt.Sprintf("[%d,%d) q=%d mean=%.6f p99=%.6f max=%.6f hit=%.4f fm=%.4f rng=%.4f sm=%.3f smW=%d",
		w.Start, w.End, w.Queries, w.MeanLat, w.P99, w.MaxLat, w.HitRate, w.FMRate, w.RangeRate, w.SMPerQuery, w.SMWriteBytes)
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
