package main

import (
	"fmt"
	"hash/fnv"
	"math"
	"time"

	"sdm/internal/cluster"
	"sdm/internal/serving"
	"sdm/internal/stats"
)

// metric is one reported number.
type metric struct {
	name  string
	value float64
	unit  string
}

// report is what one pass over one workload produces: the metrics the
// contract names, extra lines printed beside them, and the operation
// counts the correctness checks feed.
type report struct {
	workload  string
	metrics   []metric
	notes     []metric // printed, not part of the metric set
	digest    uint64   // sim_digest: every virtual result of the measured batches
	traced    bool     // a traced pass: its digest covers the replayed batches only
	spans     string   // where the traced pass wrote its spans
	attempted int
	failed    int
	failures  []string
}

func (r *report) add(name string, v float64, unit string) {
	r.metrics = append(r.metrics, metric{name, v, unit})
}

func (r *report) note(name string, v float64, unit string) {
	r.notes = append(r.notes, metric{name, v, unit})
}

// check counts one correctness comparison and records why it failed.
func (r *report) check(ok bool, format string, args ...any) {
	r.attempted++
	if !ok {
		r.failed++
		if len(r.failures) < 20 {
			r.failures = append(r.failures, fmt.Sprintf(format, args...))
		}
	}
}

// ops counts operations offered to the system (queries, row updates).
func (r *report) ops(attempted, failed int) {
	r.attempted += attempted
	r.failed += failed
}

// simAgg accumulates the virtual-time results of the fixed measured
// batches. Everything in it is a pure function of the seed.
type simAgg struct {
	lat      *stats.Histogram
	offered  int
	shed     int
	delayed  int
	delaySum float64 // seconds
	elapsed  float64 // virtual seconds, Σ (End − Start)
	digest   uint64
}

func newSimAgg() *simAgg {
	return &simAgg{lat: stats.NewHistogram(), digest: fnvOffset}
}

const fnvOffset = 14695981039346656037

// fold mixes values into an FNV-1a digest.
func fold(d uint64, vs ...uint64) uint64 {
	h := fnv.New64a()
	var b [8]byte
	put := func(v uint64) {
		for i := range b {
			b[i] = byte(v >> (8 * i))
		}
		_, _ = h.Write(b[:]) // hash.Hash.Write never fails
	}
	put(d)
	for _, v := range vs {
		put(v)
	}
	return h.Sum64()
}

// resultDigest folds every virtual-time field of a fleet result.
func resultDigest(d uint64, r *cluster.Result) uint64 {
	f := math.Float64bits
	l := r.Latency
	return fold(d, uint64(r.Queries), uint64(r.Shed), l.Count(), f(l.Sum()), f(l.Min()), f(l.Max()),
		f(l.P50()), f(l.P99()), f(l.P999()), uint64(r.Start), uint64(r.End),
		f(r.AchievedQPS), f(r.HitRate), f(r.FMServedRate), r.SMWriteBytes)
}

func (a *simAgg) observe(r *cluster.Result) {
	a.lat.Merge(r.Latency)
	a.offered += r.Queries
	a.shed += r.Shed
	for _, c := range r.Classes {
		a.delayed += c.Delayed
		a.delaySum += c.MeanDelay * float64(c.Delayed)
	}
	a.elapsed += (r.End - r.Start).Seconds()
	a.digest = resultDigest(a.digest, r)
}

// cdfBelow returns the largest fraction q for which h.Quantile(q) <= v, by
// bisection: the histogram's cumulative share at v, read through its public
// quantile query.
func cdfBelow(h *stats.Histogram, v float64) float64 {
	if h.Count() == 0 || h.Min() > v {
		return 0
	}
	if h.Max() <= v {
		return 1
	}
	lo, hi := 0.0, 1.0 // Quantile(lo) <= v < Quantile(hi)
	for i := 0; i < 50; i++ {
		mid := (lo + hi) / 2
		if h.Quantile(mid) <= v {
			lo = mid
		} else {
			hi = mid
		}
	}
	return lo
}

// interpQuantile estimates the q-quantile of h between bucket values.
// Histogram.Quantile answers at its 2 % bucket resolution, so it is a step
// function of the sample: two seeds either agree to the last digit or differ
// by a whole bucket. This reads the cumulative share at the answering bucket
// and at the occupied bucket below it, and interpolates the value linearly
// between the two — the grouped-data percentile, which moves smoothly.
func interpQuantile(h *stats.Histogram, q float64) float64 {
	v := h.Quantile(q)
	top := cdfBelow(h, v)
	bottom := cdfBelow(h, v*(1-1e-9))
	below := h.Quantile(bottom) // the occupied bucket below v's, or the minimum
	if below >= v || top <= bottom {
		return v
	}
	return below + (v-below)*(q-bottom)/(top-bottom)
}

// sloMissPct is the share of offered queries that were shed, delayed by
// admission, or finished over the latency limit. Result.Latency runs from
// the admitted instant, so a delayed query's wait is invisible in it: every
// delayed query counts as a miss. The three sets may overlap (a delayed
// query can also be slow), so this is an upper bound, capped at 100.
func (a *simAgg) sloMissPct(limitMs float64) float64 {
	over := (1 - cdfBelow(a.lat, limitMs/1e3)) * float64(a.lat.Count())
	return math.Min(100, pct(float64(a.shed+a.delayed)+over, float64(a.offered)))
}

// conservation checks one fleet result's books.
func conservation(rep *report, r *cluster.Result) {
	rep.check(r.Queries == int(r.Latency.Count())+r.Shed,
		"offered %d != completed %d + shed %d", r.Queries, r.Latency.Count(), r.Shed)
	// Windows bin queries by their admitted instant inside [Start, last
	// arrival], so a queue-mode admission delayed past the last arrival
	// falls out of them (README, known gaps): the window books are only
	// checked on runs that delayed nothing.
	delayed := 0
	for _, c := range r.Classes {
		delayed += c.Delayed
	}
	if delayed == 0 {
		var win int
		for _, w := range r.Windows {
			win += w.Queries
		}
		rep.check(win == int(r.Latency.Count()), "window queries %d != latency count %d", win, r.Latency.Count())
	}
	var hostQ int
	for _, h := range r.Hosts {
		hostQ += h.Queries
	}
	rep.check(hostQ == int(r.Latency.Count()), "host queries %d != latency count %d", hostQ, r.Latency.Count())
}

// snapshotAll sums the hosts' cumulative cache and IO counters.
func snapshotAll(hosts []*serving.Host) serving.CacheSnapshot {
	var s serving.CacheSnapshot
	for _, h := range hosts {
		s = s.Add(h.Snapshot())
	}
	return s
}

// rung is one ladder step's outcome.
type rung struct {
	qps     float64
	p99Ms   float64
	shedPct float64
	// growth is the mean latency of the run's second half over that of its
	// first half: above 1 the backlog is growing.
	growth float64
	// strain is the worst of the three pass criteria, each scaled so that
	// 1 is its limit: p99 ÷ limit, shed ÷ 1 %, growth ÷ 1.5.
	strain float64
}

// Pass limits of a rung, beside the workload's own p99 limit.
const (
	maxShedPct = 1.0
	maxGrowth  = 1.5
)

// backlogGrowth compares the mean latency of the second half of a run's
// windows with the first half's. Result.AchievedQPS cannot tell whether a
// backlog grows on a short rung: its interval runs to the last completion,
// so it reads low by the drain of the last queries at any rate.
func backlogGrowth(r *cluster.Result) float64 {
	var sum, n [2]float64
	for i, w := range r.Windows {
		h := 2 * i / len(r.Windows)
		sum[h] += w.MeanLat * float64(w.Queries)
		n[h] += float64(w.Queries)
	}
	return per(per(sum[1], n[1]), per(sum[0], n[0]))
}

// maxQPSAtSLO places the highest sustainable rate on the ladder: the rate
// at which strain crosses 1, interpolated log-linearly between the last
// passing rung and the first failing one (so the figure moves smoothly
// instead of jumping a whole rung). A ladder whose top rung passes reports
// the top rate; one whose lowest rung fails reports that rate ÷ strain.
func maxQPSAtSLO(rungs []rung) float64 {
	for i, r := range rungs {
		if r.strain <= 1 {
			continue
		}
		if i == 0 {
			return r.qps / r.strain
		}
		p := rungs[i-1]
		x := (1 - p.strain) / (r.strain - p.strain)
		return p.qps * math.Pow(r.qps/p.qps, x)
	}
	return rungs[len(rungs)-1].qps
}

// e2e is the untraced pass over one workload.
type e2e struct {
	spec    spec
	seed    uint64
	repeats int // fixture builds timed for setup_s
	rep     *report
	fx      *fixture
	setupS  []float64
	// Live heap this workload has added, MB: the sum of the growth over its
	// own turns (set-up, each measure call), so that with several workloads
	// interleaved in one process each is charged only for itself.
	heapOwn   float64
	turnStart float64
	wallUs    []float64 // per measured batch, host µs per query
	sim       *simAgg
	before    serving.CacheSnapshot
	// Closed when the last sim batch is done, at a point that depends on
	// the seed alone: allocation, FM-served share, live heap, the ladder.
	allocB []float64 // per sim batch, bytes allocated per query
	fmPct  float64
	heapMB float64
	rungs  []rung
}

// setupRepeats is how many times a run builds its fixture; setup_s is the
// median, and only the last fixture is kept.
const setupRepeats = 3

func newE2E(s spec, seed uint64, smoke bool) *e2e {
	e := &e2e{spec: s.scaled(smoke), seed: seed, repeats: setupRepeats, sim: newSimAgg()}
	if smoke {
		e.repeats = 1
	}
	e.rep = &report{workload: s.name}
	return e
}

// setup builds the fixture setupRepeats times, timing each build.
func (e *e2e) setup() error {
	e.turnStart = liveHeapMB()
	for i := 0; i < e.repeats; i++ {
		e.fx = nil
		liveHeapMB() // collect the previous fixture outside the timed build
		t0 := now()
		fx, err := build(e.spec, e.seed, nproc())
		if err != nil {
			return err
		}
		e.setupS = append(e.setupS, since(t0)/1e6)
		e.fx = fx
	}
	e.heapOwn = liveHeapMB() - e.turnStart
	e.before = snapshotAll(e.fx.hosts)
	return nil
}

// batch runs one measured batch, timing only Fleet.Run and the workload's
// own row updates.
func (e *e2e) batch() error {
	s := e.spec
	a0 := totalAlloc()
	t0 := now()
	res, err := e.fx.runBatch(s.qps, s.batch)
	us := since(t0)
	alloc := totalAlloc() - a0
	e.rep.ops(s.batch+s.updatesPerHost*s.hosts, 0)
	if err != nil {
		e.rep.ops(0, s.batch)
		return err
	}
	e.wallUs = append(e.wallUs, us/float64(s.batch))
	if len(e.wallUs) > s.simBatches {
		return nil
	}
	e.allocB = append(e.allocB, float64(alloc)/float64(s.batch))
	e.sim.observe(res)
	conservation(e.rep, res)
	if len(e.wallUs) < s.simBatches {
		return nil
	}
	return e.closeSim()
}

// closeSim runs once, after the last sim batch: everything that must not
// depend on how many batches the host had time for is measured here, the
// ladder included, so that it starts from the same fleet state on any
// machine.
func (e *e2e) closeSim() error {
	d := snapshotAll(e.fx.hosts).Sub(e.before)
	e.fmPct = 100 * d.FMServedRate()
	e.rep.check(d.Lookups == d.CacheHits+d.FMDirectReads+d.SMReads,
		"lookups %d != cache hits %d + FM-direct %d + SM reads %d", d.Lookups, d.CacheHits, d.FMDirectReads, d.SMReads)
	e.rep.check(d.CacheMisses == d.SMReads, "cache misses %d != SM reads %d", d.CacheMisses, d.SMReads)
	e.heapMB = e.heapOwn + liveHeapMB() - e.turnStart
	var err error
	e.rungs, err = e.ladder()
	return err
}

// measure runs batches until at least minBatches have run in total and
// budget has elapsed. The virtual metrics, the allocation figure and the
// ladder cover exactly the first spec.simBatches batches, so they do not
// depend on how fast the host is; later batches only add wall-clock samples.
func (e *e2e) measure(budget time.Duration, minBatches int) error {
	e.turnStart = liveHeapMB()
	t0 := now()
	for len(e.wallUs) < minBatches || now().Sub(t0) < budget {
		if err := e.batch(); err != nil {
			return err
		}
	}
	e.heapOwn += liveHeapMB() - e.turnStart
	return nil
}

// ladder offers the fixed rate rungs in ascending order on the warm fleet.
func (e *e2e) ladder() ([]rung, error) {
	s := e.spec
	var rungs []rung
	for i, m := range s.ladder {
		n := s.rungBatch[i]
		res, err := e.fx.fleet.Run(s.qps*m, n)
		e.rep.ops(n, 0)
		if err != nil {
			e.rep.ops(0, n)
			return nil, err
		}
		conservation(e.rep, res)
		r := rung{
			qps: s.qps * m, p99Ms: interpQuantile(res.Latency, 0.99) * 1e3,
			shedPct: pct(float64(res.Shed), float64(res.Queries)), growth: backlogGrowth(res),
		}
		r.strain = math.Max(r.p99Ms/s.p99LimitMs, math.Max(r.shedPct/maxShedPct, r.growth/maxGrowth))
		rungs = append(rungs, r)
	}
	return rungs, nil
}

// finish assembles the end-to-end metrics.
func (e *e2e) finish() *report {
	s, rep, a, rungs := e.spec, e.rep, e.sim, e.rungs
	rep.digest = a.digest
	rep.add("setup_s", median(e.setupS), "s")
	rep.add("wall_us_per_query", quantile(e.wallUs, 0.25), "us")
	rep.add("alloc_bytes_per_query", trimmedMean(e.allocB, 0.2), "B")
	rep.add("heap_live_mb", e.heapMB, "MB")
	rep.add("sim_mean_ms", a.lat.Mean()*1e3, "ms")
	rep.add("sim_p50_ms", interpQuantile(a.lat, 0.50)*1e3, "ms")
	rep.add("sim_p99_ms", interpQuantile(a.lat, 0.99)*1e3, "ms")
	rep.add("sim_p999_ms", interpQuantile(a.lat, 0.999)*1e3, "ms")
	rep.add("sim_achieved_qps", per(float64(a.lat.Count()), a.elapsed), "1/s")
	rep.add("sim_fm_served_pct", e.fmPct, "%")
	rep.add("sim_slo_ok_pct", 100-a.sloMissPct(s.p99LimitMs), "%")
	rep.add("sim_max_qps_at_slo", maxQPSAtSLO(rungs), "1/s")

	rep.note("alloc_bytes_per_query_mean", mean(e.allocB), "B")
	rep.note("batches_measured", float64(len(e.wallUs)), "count")
	rep.note("sim_queries", float64(a.offered), "count")
	rep.note("sim_samples_beyond_p999", float64(a.lat.Count())/1000, "count")
	rep.note("wall_us_per_query_p10", quantile(e.wallUs, 0.1), "us")
	rep.note("wall_us_per_query_p50", median(e.wallUs), "us")
	rep.note("wall_us_per_query_p90", quantile(e.wallUs, 0.9), "us")
	rep.note("generator_lateness_ms", 0, "ms") // arrivals are exact in virtual time
	rep.note("sim_slo_miss_pct", a.sloMissPct(s.p99LimitMs), "%")
	rep.note("sim_shed_pct", pct(float64(a.shed), float64(a.offered)), "%")
	rep.note("sim_delayed_pct", pct(float64(a.delayed), float64(a.offered)), "%")
	rep.note("cluster.mean_admit_delay_ms", per(a.delaySum, float64(a.delayed))*1e3, "ms")
	rep.note("sim_p99_limit_ms", s.p99LimitMs, "ms")
	for _, r := range rungs {
		rep.note(fmt.Sprintf("ladder_%.0fqps_p99_ms", r.qps), r.p99Ms, "ms")
		rep.note(fmt.Sprintf("ladder_%.0fqps_strain", r.qps), r.strain, "x")
	}
	// The ladder is placed so that its lowest rung passes and its top rung
	// fails; a seed on which it does not is reported, not counted a failure.
	bracketed := 0.0
	if rungs[0].strain <= 1 && rungs[len(rungs)-1].strain > 1 {
		bracketed = 1
	}
	rep.note("ladder_bracketed", bracketed, "bool")
	return rep
}
