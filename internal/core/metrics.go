package core

import (
	"strconv"

	"sdm/internal/metrics"
	"sdm/internal/simclock"
)

// RegisterMetrics registers the store's instrument catalog on r: the
// query-path counters, FM row-cache and pooled-cache counters, device
// and IO-ring counters, migration and endurance accounting, and
// per-table FM residency gauges. Every instrument is func-backed — the
// store's existing deterministic counters are the update path, so a
// metered run executes exactly the same work as an unmetered one and the
// values read at mark time are bit-identical at any parallelism.
// A nil registry registers nothing.
func (s *Store) RegisterMetrics(r *metrics.Registry) {
	if r == nil {
		return
	}
	// Query path.
	r.NewCounterFunc(metrics.Desc{Name: "sdm_store_lookups", Help: "Row lookups requested (post pooled-cache)."},
		func() uint64 { return s.stats.Lookups })
	r.NewCounterFunc(metrics.Desc{Name: "sdm_store_sm_reads", Help: "Row reads served by an SM device."},
		func() uint64 { return s.stats.SMReads })
	r.NewCounterFunc(metrics.Desc{Name: "sdm_store_fm_direct_reads", Help: "Reads served from FM-direct tables or FM-resident ranges."},
		func() uint64 { return s.stats.FMDirectReads })
	r.NewCounterFunc(metrics.Desc{Name: "sdm_store_range_fm_reads", Help: "Subset of FM-direct reads served by FM-resident row ranges."},
		func() uint64 { return s.stats.RangeFMReads })
	// FM row cache.
	r.NewCounterFunc(metrics.Desc{Name: "sdm_cache_hits", Help: "FM row-cache hits."},
		func() uint64 { return s.CacheStats().Hits })
	r.NewCounterFunc(metrics.Desc{Name: "sdm_cache_misses", Help: "FM row-cache misses."},
		func() uint64 { return s.CacheStats().Misses })
	r.NewCounterFunc(metrics.Desc{Name: "sdm_cache_evictions", Help: "FM row-cache evictions."},
		func() uint64 { return s.CacheStats().Evictions })
	r.NewGaugeFunc(metrics.Desc{Name: "sdm_cache_used_bytes", Help: "FM row-cache resident value bytes.", Unit: "bytes"},
		func(simclock.Time) float64 { return float64(s.CacheStats().UsedBytes) })
	// Pooled cache.
	r.NewCounterFunc(metrics.Desc{Name: "sdm_pooled_hits", Help: "Pooled-embedding cache hits across table shards."},
		func() uint64 { return s.PooledStats().Hits })
	r.NewCounterFunc(metrics.Desc{Name: "sdm_pooled_misses", Help: "Pooled-embedding cache misses across table shards."},
		func() uint64 { return s.PooledStats().Misses })
	// SM devices and IO rings.
	r.NewCounterFunc(metrics.Desc{Name: "sdm_device_bus_bytes", Help: "Read bytes transferred over the host link.", Unit: "bytes"},
		func() uint64 { return s.DeviceStats().BusBytes })
	r.NewCounterFunc(metrics.Desc{Name: "sdm_device_media_bytes", Help: "Bytes read at media granularity, including amplification.", Unit: "bytes"},
		func() uint64 { return s.DeviceStats().MediaBytes })
	r.NewCounterFunc(metrics.Desc{Name: "sdm_device_bytes_written", Help: "Lifetime SM bytes written (endurance accounting).", Unit: "bytes"},
		func() uint64 { return s.DeviceStats().BytesWritten })
	r.NewCounterFunc(metrics.Desc{Name: "sdm_ring_completed", Help: "IO-ring completions."},
		func() uint64 { return s.RingStats().Completed })
	r.NewGaugeFunc(metrics.Desc{Name: "sdm_ring_peak_inflight", Help: "Peak in-flight IOs across rings (occupancy high-water mark)."},
		func(simclock.Time) float64 { return float64(s.RingStats().PeakInflight) })
	// Tiering and endurance.
	r.NewCounterFunc(metrics.Desc{Name: "sdm_migrated_sm_to_fm_bytes", Help: "Bytes promoted SM->FM by committed migrations.", Unit: "bytes"},
		func() uint64 { return s.stats.MigratedSMToFMBytes })
	r.NewCounterFunc(metrics.Desc{Name: "sdm_migrated_fm_to_sm_bytes", Help: "Bytes demoted FM->SM by committed migrations.", Unit: "bytes"},
		func() uint64 { return s.stats.MigratedFMToSMBytes })
	r.NewCounterFunc(metrics.Desc{Name: "sdm_demote_write_bytes", Help: "SM media bytes written by demotion steps (endurance cost of tiering).", Unit: "bytes"},
		func() uint64 { return s.stats.DemoteWriteBytes })
	r.NewGaugeFunc(metrics.Desc{Name: "sdm_wear_life_frac", Help: "Fraction of rated SM life remaining."},
		func(simclock.Time) float64 { return s.Wear().LifeFrac() })
	// Per-table FM residency (tables are the store's shards).
	for i := range s.tables {
		i := i
		r.NewGaugeFunc(metrics.Desc{
			Name: "sdm_table_fm_resident_bytes", Help: "FM-resident bytes of the table (whole-table or range-granular).",
			Unit: "bytes", Labels: []metrics.Label{{Key: "table", Value: strconv.Itoa(i)}},
		}, func(simclock.Time) float64 { return float64(s.FMResidentBytes(i)) })
	}
}
