package main

import (
	"fmt"
	"math"

	"sdm/internal/adapt"
	"sdm/internal/cluster"
	"sdm/internal/core"
	"sdm/internal/embedding"
	"sdm/internal/model"
	"sdm/internal/obs"
	"sdm/internal/serving"
	"sdm/internal/simclock"
	"sdm/internal/stats"
	"sdm/internal/workload"
	"sdm/internal/xrand"
)

// recorded is one reference Fleet.Run as its decision trace tells it: per
// arrival index the admitted instant (-1 = shed), the chosen host and the
// completed latency, plus the run's own result.
type recorded struct {
	at     []simclock.Time
	chosen []int
	lat    []float64
	res    *cluster.Result
	events int
}

// record runs one batch on the reference fleet with counterfactual decision
// tracing and reads the arrival schedule back from the trace. The traced
// driver needs the arrival instants to replay the run, and the fleet keeps
// its arrival process private; the decision trace is its public record.
func record(fx *fixture, n int) (*recorded, error) {
	res, err := fx.runBatch(fx.spec.qps, n)
	if err != nil {
		return nil, err
	}
	rec := &recorded{at: make([]simclock.Time, n), chosen: make([]int, n), lat: make([]float64, n), res: res}
	for i := range rec.at {
		rec.at[i] = -1
	}
	evs := fx.fleet.TraceEvents()
	rec.events = len(evs)
	for _, ev := range evs {
		if ev.Kind == "route" && ev.Route.Seq >= 0 && ev.Route.Seq < n {
			d := ev.Route
			rec.at[d.Seq], rec.chosen[d.Seq], rec.lat[d.Seq] = ev.Time, d.Chosen, d.LatencySeconds
		}
	}
	return rec, nil
}

// driver is the benchmark's own serial front-end: it replays a recorded run
// query by query through the same public entry points Fleet.Run uses —
// NextShared, QueryBuf.CopyFrom, Router.Route, Adapter.BeforeAdmit,
// Host.Admit — with a span around each, and feeds every query's store ops
// to a shadow host set so core.PoolOps can be timed on its own.
type driver struct {
	spec   spec
	inst   *model.Instance
	tables []*embedding.Table
	tr     *tracer

	hosts    []*serving.Host
	adapters []*adapt.Adapter
	coord    *cluster.Coordinator
	shadow   []*serving.Host
	shadowAd []*adapt.Adapter
	router   cluster.Router
	gen      *workload.Generator
	upd      *xrand.RNG
	buf      workload.QueryBuf
	outs     core.OutputBuf

	lastHost map[int64]int
	routed   []int
	lastPush []simclock.Time
	queries  int // query ids handed out so far

	// Per-query samples and counts of the batches replayed with stats on.
	stats       bool
	n           int
	lookups     int
	ops         int
	users       map[int64]struct{}
	affine      int
	seenBefore  int
	outstanding float64
	pending     float64
	cpuUs       float64   // virtual store CPU, Σ OpResult.CPUTime
	ioWaitUs    []float64 // virtual, slowest SM IO of each query − arrival
	poolP1Us    []float64 // shadow PoolOps host µs at Parallelism 1 (engineProcs only)
	poolPNUs    []float64 // ... and at nproc
	updUs       float64
	flushUs     float64
	updates     int
	flushes     int
	keys        keyStream
}

// keyStream is the recorded lookup stream of one user table, which the
// unit-cost probes replay against standalone layer instances.
type keyStream struct {
	table int
	rows  []int64
	pools [][]int64
}

const (
	maxStreamRows  = 200000
	maxStreamPools = 20000
)

func newDriver(s spec, inst *model.Instance, tables []*embedding.Table, seed uint64) (*driver, error) {
	d := &driver{spec: s, inst: inst, tables: tables, tr: newTracer(),
		lastHost: map[int64]int{}, users: map[int64]struct{}{}, upd: newUpdateRNG(seed)}
	var err error
	if d.hosts, d.adapters, d.coord, err = s.hostSet(inst, tables, seed); err != nil {
		return nil, err
	}
	if d.shadow, d.shadowAd, _, err = s.hostSet(inst, tables, seed); err != nil {
		return nil, err
	}
	// The driver calls the adapters itself, so that BeforeAdmit gets its
	// own span instead of hiding inside Host.Admit.
	for _, hs := range [][]*serving.Host{d.hosts, d.shadow} {
		for _, h := range hs {
			h.SetTuner(nil)
		}
	}
	if d.router, err = s.router(); err != nil {
		return nil, err
	}
	if d.gen, err = workload.NewGenerator(inst, s.workloadConfig(seed)); err != nil {
		return nil, err
	}
	d.routed = make([]int, len(d.hosts))
	d.lastPush = make([]simclock.Time, len(d.hosts))
	// The probes replay the user table with the most lookups per query.
	for t := 0; t < inst.Config.NumUserTables; t++ {
		if inst.Tables[t].PoolingFactor > inst.Tables[d.keys.table].PoolingFactor {
			d.keys.table = t
		}
	}
	return d, nil
}

// The driver is its own cluster.View, mirroring the fleet's.
func (d *driver) Hosts() int        { return len(d.hosts) }
func (d *driver) Alive(id int) bool { return id >= 0 && id < len(d.hosts) }
func (d *driver) OutstandingAt(id int, t simclock.Time) int {
	return d.hosts[id].OutstandingAt(t)
}
func (d *driver) LastHost(user int64) int {
	if id, ok := d.lastHost[user]; ok {
		return id
	}
	return -1
}
func (d *driver) Routed(id int) int                     { return d.routed[id] }
func (d *driver) Snapshot(id int) serving.CacheSnapshot { return d.hosts[id].Snapshot() }
func (d *driver) FMServedRate(id int) float64           { return d.Snapshot(id).FMServedRate() }
func (d *driver) WearHeadroom(id int) float64           { return d.hosts[id].Store().Wear().LifeFrac() }
func (d *driver) InMigrationWindow(id int, t simclock.Time) bool {
	if d.coord == nil {
		return true
	}
	w := d.coord.WindowFor(id, t)
	return w.Open <= t && t < w.Close
}
func (d *driver) MigrationBacklog(id int) int {
	if d.adapters == nil || d.adapters[id] == nil {
		return 0
	}
	return d.adapters[id].PendingMigrations()
}

// replay drives one recorded batch and returns its host µs per query and
// the latency histogram it observed. Every routed host and every completed
// latency is compared with the reference run's.
func (d *driver) replay(rep *report, rec *recorded) (float64, *stats.Histogram, error) {
	n := len(rec.at)
	nUser := d.inst.Config.NumUserTables
	lat := stats.NewHistogram()
	for i := range d.routed {
		d.routed[i] = 0
	}
	mismatches := 0
	t0 := now()
	for i := 0; i < n; i++ {
		if d.spec.adaptive && i == n/2 {
			d.gen.ForceRotation() // Fleet.ScheduleDrift(0.5), replayed
		}
		qid := d.queries
		d.queries++
		qs := d.tr.begin("query", -1, qid)
		s := d.tr.begin("workload.next_shared", qs, qid)
		q := d.gen.NextShared()
		d.tr.end(s)
		if d.stats {
			d.n++
			d.lookups += q.Lookups()
			d.ops += len(q.Ops)
			d.users[q.UserID] = struct{}{}
			d.recordKeys(q)
		}
		at := rec.at[i]
		if at < 0 { // shed by admission: never routed
			d.tr.end(qs)
			continue
		}
		s = d.tr.begin("workload.copy", qs, qid)
		d.buf.CopyFrom(q)
		d.tr.end(s)
		s = d.tr.begin("cluster.route", qs, qid)
		id := d.router.Route(q, at, d)
		d.tr.end(s)
		if id != rec.chosen[i] {
			return 0, nil, fmt.Errorf("traced driver routed query %d to host %d, Fleet.Run to %d", i, id, rec.chosen[i])
		}
		if d.stats {
			if last, seen := d.lastHost[q.UserID]; seen {
				d.seenBefore++
				if last == id {
					d.affine++
				}
			}
		}
		d.lastHost[q.UserID] = id
		d.routed[id]++
		if at < d.lastPush[id] {
			at = d.lastPush[id]
		}
		d.lastPush[id] = at
		h := d.hosts[id]
		var ad, sad *adapt.Adapter
		if d.adapters != nil {
			ad, sad = d.adapters[id], d.shadowAd[id]
		}
		if d.stats {
			d.outstanding += float64(h.OutstandingAt(at))
			if ad != nil {
				d.pending += float64(ad.PendingMigrations())
			}
		}
		if ad != nil {
			s = d.tr.begin("adapt.before_admit", qs, qid)
			ad.BeforeAdmit(at)
			d.tr.end(s)
		}
		admit := d.tr.begin("serving.admit", qs, qid)
		done, err := h.Admit(at, d.buf.Q)
		d.tr.end(admit)
		if err != nil {
			return 0, nil, err
		}
		if ad != nil {
			s = d.tr.begin("adapt.after_admit", qs, qid)
			ad.AfterAdmit(at, done)
			d.tr.end(s)
		}
		d.tr.end(qs)

		// Shadow replay: the same user-side ops, at the same instant, on a
		// store whose caches and placement evolved identically.
		if sad != nil {
			sad.BeforeAdmit(at)
		}
		if err := d.shadowPool(d.shadow[id].Store(), at, d.buf.Q, nUser, admit, qid); err != nil {
			return 0, nil, err
		}
		if sad != nil {
			sad.AfterAdmit(at, done)
		}

		l := (done - at).Seconds()
		lat.Observe(l)
		if l != rec.lat[i] {
			mismatches++
		}
	}
	us := since(t0)
	rep.check(mismatches == 0, "traced driver: %d of %d latencies differ from Fleet.Run", mismatches, n)

	ups := drawUpdates(d.upd, d.inst, len(d.hosts), d.spec.updatesPerHost)
	updUs, flushUs, err := applyUpdates(d.hosts, d.tables, ups)
	if err != nil {
		return 0, nil, err
	}
	if _, _, err := applyUpdates(d.shadow, d.tables, ups); err != nil {
		return 0, nil, err
	}
	if d.stats && len(ups) > 0 {
		d.updUs += updUs
		d.flushUs += flushUs
		d.updates += len(ups)
		d.flushes += len(d.hosts)
	}
	return us / float64(n), lat, nil
}

// shadowPool times Store.PoolOps on the shadow store and folds the op
// results' virtual accounting. Where the workload fans a query out across
// engine workers it alternates Parallelism 1 and nproc query by query, which
// changes host time only, so the speed-up is measured on one cache state.
func (d *driver) shadowPool(st *core.Store, at simclock.Time, q workload.Query, nUser int, parent, qid int) error {
	outs := st.OutputsFor(q, &d.outs)
	serial := d.spec.engineProcs && qid%2 == 1
	if d.spec.engineProcs {
		p := nproc()
		if serial {
			p = 1
		}
		st.SetParallelism(p)
	}
	t0 := now()
	s := d.tr.begin("core.pool_ops", parent, qid)
	rs, err := st.PoolOps(at, q.Ops[:nUser], outs[:nUser])
	d.tr.end(s)
	us := since(t0)
	if err != nil {
		return err
	}
	if !d.stats {
		return nil
	}
	if serial {
		d.poolP1Us = append(d.poolP1Us, us)
	} else {
		d.poolPNUs = append(d.poolPNUs, us)
	}
	ioDone := at
	for _, r := range rs {
		d.cpuUs += float64(r.CPUTime.Nanoseconds()) / 1e3
		if r.IODone > ioDone {
			ioDone = r.IODone
		}
	}
	d.ioWaitUs = append(d.ioWaitUs, (ioDone - at).Micros())
	return nil
}

func (d *driver) recordKeys(q workload.Query) {
	k := &d.keys
	for _, op := range q.Ops {
		if op.Table != k.table {
			continue
		}
		for _, p := range op.Pools {
			if len(k.rows) < maxStreamRows {
				k.rows = append(k.rows, p...)
			}
			if len(k.pools) < maxStreamPools {
				k.pools = append(k.pools, append([]int64(nil), p...))
			}
		}
	}
}

// storeTotals sums the public counters of a host set's stores.
type storeTotals struct {
	core   core.Stats
	cache  cacheTotals
	pooled pooledTotals
	dev    devTotals
	ring   ringTotals
}

type cacheTotals struct {
	hits, misses, puts, evictions uint64
	used, total, meta             int64
}

type pooledTotals struct {
	hits, misses, puts, skipped, hitLen uint64
}

type devTotals struct {
	reads, media, bus, requested, tails, written uint64
}

type ringTotals struct {
	submitted, errors uint64
	peakInflight      int
	peakQueued        int
	cpuUs             float64
}

func totals(hosts []*serving.Host) storeTotals {
	var t storeTotals
	for _, h := range hosts {
		st := h.Store()
		c := st.Stats()
		t.core.Lookups += c.Lookups
		t.core.SMReads += c.SMReads
		t.core.FMDirectReads += c.FMDirectReads
		t.core.RangeFMReads += c.RangeFMReads
		t.core.PooledHits += c.PooledHits
		t.core.FMBytesMoved += c.FMBytesMoved
		t.core.MigratedSMToFMBytes += c.MigratedSMToFMBytes
		t.core.MigratedFMToSMBytes += c.MigratedFMToSMBytes
		t.core.DemoteWriteBytes += c.DemoteWriteBytes
		cs := st.CacheStats()
		t.cache.hits += cs.Hits
		t.cache.misses += cs.Misses
		t.cache.puts += cs.Puts
		t.cache.evictions += cs.Evictions
		t.cache.used += cs.UsedBytes
		t.cache.total += cs.TotalBytes
		t.cache.meta += cs.MetaBytes
		ps := st.PooledStats()
		t.pooled.hits += ps.Hits
		t.pooled.misses += ps.Misses
		t.pooled.puts += ps.Puts
		t.pooled.skipped += ps.Skipped
		t.pooled.hitLen += ps.HitLenSum
		ds := st.DeviceStats()
		t.dev.reads += ds.Reads
		t.dev.media += ds.MediaBytes
		t.dev.bus += ds.BusBytes
		t.dev.requested += ds.RequestedBytes
		t.dev.tails += ds.TailEvents
		t.dev.written += ds.BytesWritten
		rs := st.RingStats()
		t.ring.submitted += rs.Submitted
		t.ring.errors += rs.Errors
		t.ring.peakInflight = max(t.ring.peakInflight, rs.PeakInflight)
		t.ring.peakQueued = max(t.ring.peakQueued, rs.PeakQueued)
		t.ring.cpuUs += float64(rs.CPUTime.Nanoseconds()) / 1e3
	}
	return t
}

// traceLevel is the reference fleet's decision tracing while it records.
var traceLevel = obs.Config{Level: obs.LevelCounterfactual}

// finite guards a reported value against NaN and ±Inf.
func finite(v float64) float64 {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return 0
	}
	return v
}
