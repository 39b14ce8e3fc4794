package main

import (
	"time"

	"sdm/internal/blockdev"
	"sdm/internal/cache"
	"sdm/internal/core"
	"sdm/internal/embedding"
	"sdm/internal/pooledcache"
	"sdm/internal/quant"
	"sdm/internal/simclock"
	"sdm/internal/stats"
	"sdm/internal/uring"
	"sdm/internal/xrand"
)

// The layers below core cannot be reached through a store from outside, so
// each gets a unit-cost probe: a standalone instance configured as the store
// configures its own, driven by the key stream the traced driver recorded,
// timed in loops of at least probeCalls calls.
const probeCalls = 20000

// nsPerCall times n calls of fn and returns host ns per call.
func nsPerCall(n int, fn func(i int)) float64 {
	t0 := now()
	for i := 0; i < n; i++ {
		fn(i)
	}
	return since(t0) * 1e3 / float64(n)
}

// unitCosts are the probes' results, host ns per call unless noted.
type unitCosts struct {
	zipfRank      float64
	cacheGetHit   float64
	cacheGetMiss  float64
	cachePutEvict float64
	pooledGet     float64
	pooledPut     float64
	quantAccum    float64
	peekInto      float64
	accountRead   float64
	accountWrite  float64
	timedRead     float64
	submitSync    float64
	histObserve   float64
	readLatP50Us  float64 // virtual
	readLatP99Us  float64 // virtual
}

// probe measures every unit cost for one workload. st is one of the
// workload's stores (for the shard geometry), iops the per-device read rate
// the workload measured, keys the recorded lookup stream.
func probe(s spec, table *embedding.Table, st *core.Store, keys keyStream, iops float64, seed uint64) unitCosts {
	var u unitCosts
	spec := table.Spec()
	rows := keys.rows
	if len(rows) == 0 {
		return u
	}
	calls := max(probeCalls, len(rows))
	row := func(i int) int64 { return rows[i%len(rows)] }

	rng := xrand.New(seed ^ 0x70726f62)
	z := xrand.NewZipf(spec.Rows, spec.Alpha)
	var sink int64
	u.zipfRank = nsPerCall(calls, func(int) { sink += z.Rank(rng) })

	h := stats.NewHistogram()
	u.histObserve = nsPerCall(calls, func(i int) { h.Observe(1e-4 * float64(1+i%97)) })

	// quant: one AccumulateRow per looked-up row.
	acc := make([]float32, spec.Dim)
	u.quantAccum = nsPerCall(calls, func(i int) {
		b, _ := table.Row(row(i)) // rows come from the generator, always in range
		_ = quant.AccumulateRow(acc, b, spec.QType)
	})

	// cache: the shard the store builds for this table — memory-optimized
	// for rows up to the 255-byte split, CPU-optimized above it — with the
	// table's share of the effective budget.
	var ts core.TableStat
	var smBytes int64
	cached := 0 // tables with a cache shard, which are also those with a pooled shard
	for _, t := range st.TableStats(nil) {
		if t.CacheEnabled {
			smBytes += t.StoredBytes
			cached++
		}
		if t.Table == keys.table {
			ts = t
		}
	}
	budget := int64(float64(st.Stats().EffCacheBytes) * per(float64(ts.StoredBytes), float64(smBytes)))
	budget = max(budget, 1<<12)
	var rc cache.RowCache
	if ts.RowBytes <= st.Config().CacheSplitBytes {
		rc = cache.NewMemOptimized(budget, ts.RowBytes)
	} else {
		rc = cache.NewCPUOptimized(budget)
	}
	key := func(r int64) cache.Key { return cache.Key{Table: int32(spec.ID), Row: r} }
	buf := make([]byte, ts.RowBytes)
	for _, r := range rows { // warm to the stream's steady state
		if _, ok := rc.Get(key(r), buf); !ok {
			b, _ := table.Row(r)
			rc.Put(key(r), b)
		}
	}
	var hits, misses []int64
	seen := map[int64]bool{}
	for _, r := range rows {
		if seen[r] {
			continue
		}
		seen[r] = true
		if rc.Contains(key(r)) {
			hits = append(hits, r)
		} else {
			misses = append(misses, r)
		}
	}
	if len(hits) > 0 {
		u.cacheGetHit = nsPerCall(calls, func(i int) { rc.Get(key(hits[i%len(hits)]), buf) })
	}
	if len(misses) > 0 {
		u.cacheGetMiss = nsPerCall(calls, func(i int) { rc.Get(key(misses[i%len(misses)]), buf) })
		// A put of an absent row into a full shard evicts one.
		u.cachePutEvict = nsPerCall(calls, func(i int) {
			r := misses[i%len(misses)]
			b, _ := table.Row(r)
			rc.Put(key(r), b)
		})
	}

	// pooledcache: one shard of the store's even split. Where the workload
	// has the pooled cache off the probe still prices the layer, with
	// fleet-sticky's budget; the store's own counters say it is never called.
	if len(keys.pools) > 0 {
		pc := pooledcache.New(pooledcache.Config{
			CapacityBytes: max(max(s.pooledBytes, 256<<10)/int64(max(cached, 1)), 1<<12),
			LenThreshold:  st.Config().PooledLenThreshold,
		})
		vec := make([]float32, spec.Dim)
		pool := func(i int) []int64 { return keys.pools[i%len(keys.pools)] }
		for i := range keys.pools {
			if pc.Get(int32(spec.ID), pool(i)) == nil {
				pc.Put(int32(spec.ID), pool(i), vec)
			}
		}
		u.pooledGet = nsPerCall(calls, func(i int) { pc.Get(int32(spec.ID), pool(i)) })
		u.pooledPut = nsPerCall(calls, func(i int) { pc.Put(int32(spec.ID), pool(i), vec) })
	}

	// blockdev and uring: a standalone device of the store's technology and
	// a synchronous SGL ring over it, read at the table's row offsets.
	tech := blockdev.Spec(st.Config().SMTech)
	capacity := spec.SizeBytes() + int64(tech.AccessGranularity)
	off := func(i int) int64 { return table.RowOffset(row(i)) }
	var clk simclock.Clock
	dev := blockdev.New(tech, capacity, &clk, seed)
	u.peekInto = nsPerCall(calls, func(i int) { _ = dev.PeekInto(buf, off(i)) })
	gap := simclock.Time(time.Second)
	if iops > 0 {
		gap = simclock.Time(float64(time.Second) / iops)
	}
	var at simclock.Time
	u.accountRead = nsPerCall(calls, func(i int) {
		at += gap
		_, _ = dev.AccountRead(at, off(i), len(buf), true)
	})
	u.accountWrite = nsPerCall(calls, func(i int) {
		at += gap
		_, _ = dev.AccountWrite(at, off(i), len(buf))
	})
	ring := uring.NewSync(blockdev.New(tech, capacity, &clk, seed+1), st.Config().Ring)
	at = 0
	u.timedRead = nsPerCall(calls, func(i int) {
		at += gap
		_, _ = ring.SubmitTimedRead(at, len(buf), off(i))
	})
	u.submitSync = nsPerCall(calls, func(i int) {
		at += gap
		_, _ = ring.SubmitSync(at, buf, off(i), false)
	})

	// Virtual read latency of a fresh device at the workload's measured
	// per-device IOPS, Poisson arrivals.
	fresh := blockdev.New(tech, capacity, &clk, seed+2)
	lat := make([]float64, 0, calls)
	at = 0
	for i := 0; i < calls; i++ {
		at += simclock.Time(rng.Exp(float64(gap)))
		done, err := fresh.AccountRead(at, off(i), len(buf), true)
		if err == nil {
			lat = append(lat, (done - at).Micros())
		}
	}
	u.readLatP50Us = quantile(lat, 0.5)
	u.readLatP99Us = quantile(lat, 0.99)
	_ = sink
	return u
}
