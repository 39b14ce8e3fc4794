package main

import (
	"bytes"
	"io"
	"runtime"
	"time"

	"sdm/internal/cluster"
	"sdm/internal/core"
	"sdm/internal/model"
	"sdm/internal/obs"
	"sdm/internal/serving"
	"sdm/internal/simclock"
)

// Batches of the traced pass. The reference fleet records warmBatches +
// spanBatches batches with decision tracing on; the driver replays all of
// them (so every query can be compared with Fleet.Run's) and computes the
// per-layer numbers from the last spanBatches, once caches have filled.
// Spans are recorded on every other measured batch; the batches between
// them run the same driver with spans off, which is the untraced driver
// trace.overhead_pct compares against.
const (
	warmBatches = 2
	spanBatches = 4
	minRounds   = 3 // paired fleet-timing rounds
)

// runTraced is the traced pass over one workload: per-layer metrics only.
func runTraced(s spec, seed uint64, budget time.Duration) (*report, error) {
	rep := &report{workload: s.name, traced: true}
	start := now()

	// model, embedding: set-up costs, timed apart.
	t0 := now()
	inst, err := model.Build(modelConfig(), s.modelScale, modelSeed)
	if err != nil {
		return nil, err
	}
	buildMs := since(t0) / 1e3
	t0 = now()
	tables, err := inst.Materialize()
	if err != nil {
		return nil, err
	}
	materializeMs := since(t0) / 1e3

	// cluster/core/serving construction costs.
	scfg := s.storeConfig(inst, seed)
	hcfg := serving.Config{Spec: serving.HWSS(), InterOp: true, Seed: seed}
	t0 = now()
	probeHosts, err := cluster.HostSet(inst, tables, s.hosts, &scfg, hcfg)
	if err != nil {
		return nil, err
	}
	hostSetMs := since(t0) / 1e3
	const ctorReps = 8
	donor := probeHosts[0].Store()
	var clk simclock.Clock
	t0 = now()
	for i := 0; i < ctorReps; i++ {
		if _, err := core.OpenReplica(donor, donor.Config(), &clk); err != nil {
			return nil, err
		}
	}
	openReplicaMs := since(t0) / 1e3 / ctorReps
	t0 = now()
	for i := 0; i < ctorReps; i++ {
		if _, err := serving.NewHost(inst, donor, tables, nil, &clk, hcfg); err != nil {
			return nil, err
		}
	}
	newHostMs := since(t0) / 1e3 / ctorReps
	// A workload without online updates still prices the update path, on
	// this otherwise unused store.
	const probeUpdates = 64
	probeUpdUs, probeFlushUs, err := applyUpdates(probeHosts[:1], tables, drawUpdates(newUpdateRNG(seed), inst, 1, probeUpdates))
	if err != nil {
		return nil, err
	}
	rep.ops(probeUpdates, 0)

	// Phase A: record on the reference fleet, replay on the driver.
	ref, err := newFixture(s, inst, tables, seed, nproc())
	if err != nil {
		return nil, err
	}
	if err := ref.fleet.SetTrace(traceLevel); err != nil {
		return nil, err
	}
	d, err := newDriver(s, inst, tables, seed)
	if err != nil {
		return nil, err
	}
	refDigest, drvDigest := uint64(fnvOffset), uint64(fnvOffset)
	var before storeTotals
	var spanOnUs, spanOffUs []float64
	var shed, delayed, offered, events int
	var delaySum float64
	var loadFair, classFair []float64
	var obsWriteMs float64
	for b := 0; b < warmBatches+spanBatches; b++ {
		rec, err := record(ref, s.batch)
		rep.ops(s.batch, 0)
		if err != nil {
			return nil, err
		}
		measured := b >= warmBatches
		if b == warmBatches {
			before = totals(d.hosts)
		}
		d.stats = measured
		d.tr.on = measured && (b-warmBatches)%2 == 0
		us, lat, err := d.replay(rep, rec)
		if err != nil {
			return nil, err
		}
		l := rec.res.Latency
		refDigest = fold(refDigest, l.Count(), uint64(l.P50()*1e12), uint64(l.P99()*1e12), uint64(l.Max()*1e12))
		drvDigest = fold(drvDigest, lat.Count(), uint64(lat.P50()*1e12), uint64(lat.P99()*1e12), uint64(lat.Max()*1e12))
		if !measured {
			continue
		}
		if d.tr.on {
			spanOnUs = append(spanOnUs, us)
		} else {
			spanOffUs = append(spanOffUs, us)
		}
		offered += rec.res.Queries
		shed += rec.res.Shed
		events += rec.events
		for _, c := range rec.res.Classes {
			delayed += c.Delayed
			delaySum += c.MeanDelay * float64(c.Delayed)
		}
		loadFair = append(loadFair, rec.res.LoadFairness)
		if len(rec.res.Classes) > 0 {
			classFair = append(classFair, rec.res.ClassFairness)
		}
		t0 = now()
		if err := ref.fleet.WriteTrace(io.Discard); err != nil {
			return nil, err
		}
		obsWriteMs += since(t0) / 1e3 / spanBatches
	}
	rep.check(refDigest == drvDigest, "traced driver digest %016x differs from Fleet.Run's %016x", drvDigest, refDigest)
	rep.digest = drvDigest
	after, afterShadow := totals(d.hosts), totals(d.shadow)
	rep.check(after.core.Lookups == afterShadow.core.Lookups && after.core.SMReads == afterShadow.core.SMReads &&
		after.cache.hits == afterShadow.cache.hits, "shadow stores diverged from the driver's hosts")
	if err := ref.fleet.SetTrace(obs.Config{Level: obs.LevelOff}); err != nil {
		return nil, err
	}

	// Phase B: paired fleet timings. The same workload on four fleets —
	// one host worker, nproc, nproc with the metrics plane flipped, and
	// the reference fleet again with decision tracing on — visited in
	// turn, so machine drift lands on all four alike.
	f1, err := newFixture(s, inst, tables, seed, 1)
	if err != nil {
		return nil, err
	}
	flip := s
	flip.metered = !s.metered
	fm, err := newFixture(flip, inst, tables, seed, nproc())
	if err != nil {
		return nil, err
	}
	for _, fx := range []*fixture{f1, fm} {
		for b := 0; b < warmBatches+spanBatches; b++ {
			if _, err := fx.runBatch(s.qps, s.batch); err != nil {
				return nil, err
			}
			rep.ops(s.batch, 0)
		}
	}
	var w1Us, wnUs, flipUs, obsUs []float64
	var cpuUs float64
	timeBatch := func(fx *fixture, dst *[]float64) error {
		t0 := now()
		_, err := fx.runBatch(s.qps, s.batch)
		*dst = append(*dst, since(t0)/float64(s.batch))
		rep.ops(s.batch, 0)
		return err
	}
	for r := 0; r < minRounds || now().Sub(start) < budget; r++ {
		// One host worker on one processor: the front-end and the hosts
		// cannot overlap, so run_w1 is the sum of all the work and the
		// layer costs can be added up against it.
		procs := runtime.GOMAXPROCS(1)
		err := timeBatch(f1, &w1Us)
		runtime.GOMAXPROCS(procs)
		if err != nil {
			return nil, err
		}
		c0 := cpuMicros()
		if err := timeBatch(ref, &wnUs); err != nil {
			return nil, err
		}
		cpuUs += (cpuMicros() - c0) / float64(s.batch)
		if err := timeBatch(fm, &flipUs); err != nil {
			return nil, err
		}
		if err := ref.fleet.SetTrace(traceLevel); err != nil {
			return nil, err
		}
		if err := timeBatch(ref, &obsUs); err != nil {
			return nil, err
		}
		if err := ref.fleet.SetTrace(obs.Config{Level: obs.LevelOff}); err != nil {
			return nil, err
		}
	}
	metered, meteredUs, plainUs := ref, wnUs, flipUs
	if !s.metered {
		metered, meteredUs, plainUs = fm, flipUs, wnUs
	}
	var mbuf bytes.Buffer
	t0 = now()
	if err := metered.fleet.WriteMetrics(io.Discard); err != nil {
		return nil, err
	}
	metricsWriteMs := since(t0) / 1e3
	if err := metered.fleet.WriteMetricsJSONL(&mbuf); err != nil {
		return nil, err
	}
	samples := bytes.Count(mbuf.Bytes(), []byte("\n"))

	// Probes, fed by the stream the driver recorded.
	dt := totals(d.hosts)
	n := float64(d.n)
	smReads := float64(dt.core.SMReads - before.core.SMReads)
	virtSec := 0.0
	for _, h := range d.hosts {
		virtSec = max(virtSec, h.Ready().Seconds())
	}
	devices := float64(len(d.hosts) * d.hosts[0].Store().Config().NumDevices)
	iops := per(float64(dt.dev.reads), virtSec*devices)
	u := probe(s, tables[d.keys.table], d.hosts[0].Store(), d.keys, iops, seed)
	migStepUs, err := probeMigration(d)
	if err != nil {
		return nil, err
	}

	// Per-query call counts over the measured batches.
	hits := float64(dt.cache.hits - before.cache.hits)
	misses := float64(dt.cache.misses - before.cache.misses)
	puts := float64(dt.cache.puts - before.cache.puts)
	pGets := float64(dt.pooled.hits + dt.pooled.misses - before.pooled.hits - before.pooled.misses)
	pPuts := float64(dt.pooled.puts - before.pooled.puts)
	pHits := float64(dt.pooled.hits - before.pooled.hits)
	pSkipped := float64(dt.pooled.skipped - before.pooled.skipped)
	lookups := float64(dt.core.Lookups - before.core.Lookups)
	fmDirect := float64(dt.core.FMDirectReads - before.core.FMDirectReads)
	rangeFM := float64(dt.core.RangeFMReads - before.core.RangeFMReads)
	wholeFM := fmDirect - rangeFM // pooled by the flat table, no AccumulateRow call of the store's
	devReads := float64(dt.dev.reads - before.dev.reads)
	submitted := float64(dt.ring.submitted - before.ring.submitted)
	written := float64(dt.dev.written - before.dev.written)

	spans := d.tr.spans
	self := selfTimes(spans)
	meanOf := func(name string) float64 { return mean(durations(spans, name)) }
	nextUs, copyUs := meanOf("workload.next_shared"), meanOf("workload.copy")
	routeUs, beforeUs := meanOf("cluster.route"), meanOf("adapt.before_admit")
	afterUs := meanOf("adapt.after_admit")
	admitUs := meanOf("serving.admit")
	poolUs := durations(spans, "core.pool_ops")
	poolMean := mean(poolUs)
	var querySelfUs float64
	for i, sp := range spans {
		if sp.Name == "query" {
			querySelfUs += float64(self[i]) / 1e3
		}
	}
	querySelfUs = per(querySelfUs, float64(len(durations(spans, "query"))))
	// Per admitted query (the spans' denominator), not per offered query.
	admitted := n - float64(shed)
	childUs := (hits*u.cacheGetHit + misses*u.cacheGetMiss + puts*u.cachePutEvict +
		pGets*u.pooledGet + pPuts*u.pooledPut +
		(lookups-wholeFM)*u.quantAccum +
		smReads*(u.peekInto+u.timedRead)) / 1e3 / admitted
	coreSelf := max(poolMean-childUs, 0)
	servingSelf := max(admitUs-poolMean, 0)
	runW1, runWN := median(w1Us), median(wnUs)
	frontend := runW1 - nextUs - admitUs
	leaves := nextUs + copyUs + routeUs + beforeUs + afterUs + servingSelf + coreSelf + childUs + querySelfUs
	speedup := 1.0
	if s.engineProcs {
		speedup = per(mean(d.poolP1Us), mean(d.poolPNUs))
	}
	path, err := writeSpans(s.name, spans)
	if err != nil {
		return nil, err
	}

	add := func(name string, v float64, unit string) { rep.add(name, finite(v), unit) }
	add("xrand.zipf_rank_ns", u.zipfRank, "ns")
	add("workload.next_shared_us", nextUs, "us")
	add("workload.copy_us", copyUs, "us")
	add("workload.lookups_per_query", per(float64(d.lookups), n), "count")
	add("workload.ops_per_query", per(float64(d.ops), n), "count")
	add("workload.distinct_users_pct", pct(float64(len(d.users)), n), "%")
	add("cache.get_hit_ns", u.cacheGetHit, "ns")
	add("cache.get_miss_ns", u.cacheGetMiss, "ns")
	add("cache.put_evict_ns", u.cachePutEvict, "ns")
	add("cache.hit_pct", pct(hits, hits+misses), "%")
	add("cache.evictions_per_query", per(float64(dt.cache.evictions-before.cache.evictions), n), "count")
	add("cache.occupancy_pct", pct(float64(dt.cache.used+dt.cache.meta), float64(dt.cache.total)), "%")
	add("cache.meta_overhead_pct", pct(float64(dt.cache.meta), float64(dt.cache.used+dt.cache.meta)), "%")
	add("pooledcache.get_ns", u.pooledGet, "ns")
	add("pooledcache.put_ns", u.pooledPut, "ns")
	add("pooledcache.hit_pct", pct(pHits, pGets+pSkipped), "%")
	add("pooledcache.avg_hit_len", per(float64(dt.pooled.hitLen-before.pooled.hitLen), pHits), "count")
	add("pooledcache.skipped_pct", pct(pSkipped, pGets+pSkipped), "%")
	add("quant.accumulate_row_ns", u.quantAccum, "ns")
	add("blockdev.peek_into_ns", u.peekInto, "ns")
	add("blockdev.account_read_ns", u.accountRead, "ns")
	add("blockdev.account_write_ns", u.accountWrite, "ns")
	add("blockdev.reads_per_query", per(devReads, n), "count")
	add("blockdev.read_amp", per(float64(dt.dev.media-before.dev.media), float64(dt.dev.requested-before.dev.requested)), "x")
	add("blockdev.bus_saving_pct", 100-pct(float64(dt.dev.bus-before.dev.bus), float64(dt.dev.media-before.dev.media)), "%")
	add("blockdev.tail_events_per_kread", 1000*per(float64(dt.dev.tails-before.dev.tails), devReads), "count")
	add("blockdev.written_bytes_per_query", per(written, n), "B")
	add("blockdev.read_lat_us_p50", u.readLatP50Us, "us")
	add("blockdev.read_lat_us_p99", u.readLatP99Us, "us")
	add("uring.submit_timed_read_ns", u.timedRead, "ns")
	add("uring.submit_sync_ns", u.submitSync, "ns")
	add("uring.submitted_per_query", per(submitted, n), "count")
	add("uring.peak_inflight", float64(dt.ring.peakInflight), "count")
	add("uring.peak_queued", float64(dt.ring.peakQueued), "count")
	add("uring.errors", float64(dt.ring.errors), "count")
	add("uring.cpu_us_per_query", per(dt.ring.cpuUs-before.ring.cpuUs, n), "us")
	add("core.pool_ops_us", poolMean, "us")
	add("core.pool_ops_us_p99", quantile(poolUs, 0.99), "us")
	add("core.self_us", coreSelf, "us")
	add("core.parallel_speedup", speedup, "x")
	if d.updates == 0 {
		d.updUs, d.updates, d.flushUs, d.flushes = probeUpdUs, probeUpdates, probeFlushUs, 1
	}
	add("core.update_row_us", per(d.updUs, float64(d.updates)), "us")
	add("core.flush_updates_us", per(d.flushUs, float64(d.flushes)), "us")
	add("core.migration_step_us", migStepUs, "us")
	add("core.open_replica_ms", openReplicaMs, "ms")
	add("core.lookups_per_query", per(lookups, n), "count")
	add("core.sm_reads_per_query", per(smReads, n), "count")
	add("core.fm_direct_per_query", per(fmDirect, n), "count")
	add("core.range_fm_per_query", per(rangeFM, n), "count")
	add("core.pooled_hits_per_query", per(float64(dt.core.PooledHits-before.core.PooledHits), n), "count")
	add("core.fm_bytes_per_query", per(float64(dt.core.FMBytesMoved-before.core.FMBytesMoved), n), "B")
	add("core.migrated_mb", float64(dt.core.MigratedSMToFMBytes+dt.core.MigratedFMToSMBytes-before.core.MigratedSMToFMBytes-before.core.MigratedFMToSMBytes)/(1<<20), "MB")
	add("core.demote_write_mb", float64(dt.core.DemoteWriteBytes-before.core.DemoteWriteBytes)/(1<<20), "MB")
	add("core.cpu_us_per_query", per(d.cpuUs, n), "us")
	add("core.io_wait_us_p50", quantile(d.ioWaitUs, 0.5), "us")
	add("core.io_wait_us_p99", quantile(d.ioWaitUs, 0.99), "us")
	add("serving.admit_us", admitUs, "us")
	add("serving.self_us", servingSelf, "us")
	add("serving.new_host_ms", newHostMs, "ms")
	add("serving.outstanding_mean", per(d.outstanding, admitted), "count")
	as := cluster.AdapterStats(d.adapters)
	add("adapt.before_admit_us", beforeUs, "us")
	add("adapt.evals", float64(as.Evals), "count")
	add("adapt.promotions", float64(as.Promotions), "count")
	add("adapt.demotions", float64(as.Demotions), "count")
	add("adapt.range_moves", float64(as.RangeMoves), "count")
	add("adapt.aborts", float64(as.Aborts), "count")
	add("adapt.migrated_mb", float64(as.MigratedBytes)/(1<<20), "MB")
	add("adapt.pending_mean", per(d.pending, admitted), "count")
	add("cluster.route_ns", routeUs*1e3, "ns")
	add("cluster.run_w1_us_per_query", runW1, "us")
	add("cluster.frontend_us", frontend, "us")
	add("cluster.parallel_efficiency_pct", pct(runW1, runWN*float64(min(nproc(), s.hosts))), "%")
	add("cluster.run_us_p10", quantile(wnUs, 0.1), "us")
	add("cluster.run_us_p90", quantile(wnUs, 0.9), "us")
	add("cluster.cpu_us_per_query", per(cpuUs, float64(len(wnUs))), "us")
	add("cluster.host_set_ms_per_host", hostSetMs/float64(s.hosts), "ms")
	add("cluster.load_fairness", mean(loadFair), "x")
	add("cluster.class_fairness", mean(classFair), "x")
	add("cluster.shed_pct", pct(float64(shed), float64(offered)), "%")
	add("cluster.delayed_pct", pct(float64(delayed), float64(offered)), "%")
	add("cluster.mean_admit_delay_ms", per(delaySum, float64(delayed))*1e3, "ms")
	add("cluster.affinity_pct", pct(float64(d.affine), float64(d.seenBefore)), "%")
	add("metrics.overhead_pct", pct(median(meteredUs)-median(plainUs), median(plainUs)), "%")
	add("metrics.samples_per_run", float64(samples), "count")
	add("metrics.write_ms", metricsWriteMs, "ms")
	add("obs.trace_overhead_pct", pct(median(obsUs)-runWN, runWN), "%")
	add("obs.events_per_query", per(float64(events), float64(offered)), "count")
	add("obs.write_ms", obsWriteMs, "ms")
	add("stats.histogram_observe_ns", u.histObserve, "ns")
	add("model.build_ms", buildMs, "ms")
	add("embedding.materialize_ms", materializeMs, "ms")
	add("decomp.explained_pct", pct(leaves, runW1), "%")
	add("decomp.residual_us", runW1-leaves, "us")
	add("trace.overhead_pct", pct(median(spanOnUs)-median(spanOffUs), median(spanOffUs)), "%")

	rep.note("cluster.run_wn_us_per_query", runWN, "us")
	rep.note("adapt.after_admit_us", afterUs, "us")
	rep.note("driver.query_self_us", querySelfUs, "us")
	rep.note("driver.child_unit_cost_us", childUs, "us")
	rep.note("driver.queries_measured", n, "count")
	rep.note("driver.spans", float64(len(spans)), "count")
	rep.note("probe.device_iops", iops, "1/s")
	rep.note("fleet_rounds", float64(len(w1Us)), "count")
	rep.spans = path
	return rep, nil
}

// probeMigration times Migration.Step on one of the driver's stores: it
// promotes one row range of an SM-resident swappable table chunk by chunk
// and aborts, leaving placement as it was. Workloads without adaptive
// tiering have nothing to migrate and report 0.
func probeMigration(d *driver) (float64, error) {
	if !d.spec.adaptive {
		return 0, nil
	}
	st := d.shadow[0].Store()
	for _, t := range st.TableStats(nil) {
		if !t.Swappable || t.RangeRows <= 0 || t.FMRangeBytes > 0 || st.FMResidentBytes(t.Table) > 0 {
			continue
		}
		m, err := st.BeginPromoteRange(t.Table, 0, t.RangeRows, 16<<10)
		if err != nil {
			continue
		}
		at := d.shadow[0].Ready()
		steps := 0
		t0 := now()
		for !m.Finished() && steps < 1000 {
			_, done, err := m.Step(at)
			if err != nil {
				m.Abort()
				return 0, err
			}
			at = done
			steps++
		}
		us := since(t0)
		m.Abort()
		return per(us, float64(steps)), nil
	}
	return 0, nil
}
