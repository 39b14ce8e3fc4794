// Package adapt closes the loop the paper's §4.6 Tuning API leaves open:
// placement there is chosen once, offline, from a static locality profile,
// but production traffic drifts — hot sets rotate, the user mix shifts,
// flash crowds appear. The subsystem has three parts: per-table windowed
// telemetry with exponential decay (this file), a controller that
// periodically re-evaluates the Table-5 placement against live stats, and
// a migration engine that moves table rows FM↔SM through the store's
// rings under a configurable bandwidth cap, so migration IO is accounted
// in virtual time and visibly competes with foreground queries.
//
// Everything books on the host's virtual timeline, driven from the
// serving.Tuner hooks in admission order; results are therefore
// bit-identical for a fixed seed at any worker count.
package adapt

import (
	"sdm/internal/core"
	"sdm/internal/placement"
	"sdm/internal/simclock"
)

// TableTelemetry is one table's decayed view of live traffic.
type TableTelemetry struct {
	Table     int
	Swappable bool
	// StoredBytes is the table's migratable footprint.
	StoredBytes int64
	// LookupRate is the decayed row-lookup rate (lookups/s of virtual time).
	LookupRate float64
	// DemandBytes is the decayed bandwidth demand (bytes/s the table's
	// lookups would pull if every row came from its backing store).
	DemandBytes float64
	// FMServed is the decayed fraction of lookups served from fast memory
	// (cache hits + direct FM reads).
	FMServed float64
	// Reuse is the decayed row-cache hit rate — the reuse signal behind
	// the paper's per-table cache enablement.
	Reuse float64
	// DemoteRate is the decayed SM demote-write rate (bytes/s of virtual
	// time) this table's migrations have cost, fed by the per-table
	// core.TableStat.DemoteWriteBytes endurance counter. It is an
	// observability field (which tables churn the write budget) — the
	// packing greedy's wear term itself scores candidates by footprint
	// (placement.RangeItem.DemoteBytes), not by this rate.
	DemoteRate float64
	// Windows counts samples folded into the decayed values.
	Windows int
}

// Density returns the bandwidth demand per byte of capacity — the greedy
// ranking key of the Table-5 FM promotion, computed from live stats
// instead of the static profile.
func (t TableTelemetry) Density() float64 {
	if t.StoredBytes <= 0 {
		return 0
	}
	return t.DemandBytes / float64(t.StoredBytes)
}

// RangeTelemetry is one row range's decayed view of live traffic — the
// demand signal behind range-granular re-placement.
type RangeTelemetry struct {
	Table int
	Range int
	// Rows and Bytes are the range's geometry (Bytes is what migrating it
	// costs against the budget and the bandwidth cap).
	Rows  int64
	Bytes int64
	// FMResident mirrors the store's residency at the last sample.
	FMResident bool
	// LookupRate is the decayed row-lookup rate (lookups/s of virtual
	// time). While the whole table is FM-resident the store does not
	// attribute lookups to ranges, so the value freezes at its last
	// SM-phase estimate — the best available profile when the table is
	// later demoted.
	LookupRate float64
	// RowBytes is the table's stored row size.
	RowBytes int
	// Windows counts samples folded into the decayed values.
	Windows int
}

// Density returns the bandwidth demand per byte of capacity — the ranking
// key of the range-granular knapsack, comparable with TableTelemetry.Density.
func (r RangeTelemetry) Density() float64 {
	if r.Bytes <= 0 {
		return 0
	}
	return r.LookupRate * float64(r.RowBytes) / float64(r.Bytes)
}

// Telemetry accumulates per-table and per-range windowed counters from a
// store's cumulative TableStats/RangeStats, decaying older windows
// exponentially.
type Telemetry struct {
	// smoothing is the EWMA weight of the newest window.
	smoothing float64
	tables    []TableTelemetry
	prev      []core.TableStat
	cur       []core.TableStat // scratch
	ranges    []RangeTelemetry
	prevR     []core.RangeStat
	curR      []core.RangeStat // scratch
	lastAt    simclock.Time
	primed    bool
}

// NewTelemetry builds a telemetry accumulator. smoothing is the EWMA
// weight of the newest window in (0, 1]; 0 selects 0.5.
func NewTelemetry(smoothing float64) *Telemetry {
	if smoothing <= 0 || smoothing > 1 {
		smoothing = 0.5
	}
	return &Telemetry{smoothing: smoothing}
}

// Sample folds the counter deltas since the previous Sample into the
// decayed per-table telemetry. The first call only establishes the
// baseline.
func (tl *Telemetry) Sample(now simclock.Time, s *core.Store) {
	tl.cur = s.TableStats(tl.cur)
	tl.curR = s.RangeStats(tl.curR)
	if !tl.primed {
		tl.prev = append(tl.prev[:0], tl.cur...)
		tl.prevR = append(tl.prevR[:0], tl.curR...)
		tl.tables = make([]TableTelemetry, len(tl.cur))
		for i, ts := range tl.cur {
			tl.tables[i] = TableTelemetry{Table: ts.Table, Swappable: ts.Swappable, StoredBytes: ts.StoredBytes}
		}
		tl.ranges = make([]RangeTelemetry, len(tl.curR))
		for i, rs := range tl.curR {
			tl.ranges[i] = RangeTelemetry{
				Table: rs.Table, Range: rs.Range, Rows: rs.Rows, Bytes: rs.Bytes,
				FMResident: rs.FMResident, RowBytes: tl.cur[rs.Table].RowBytes,
			}
		}
		tl.lastAt = now
		tl.primed = true
		return
	}
	dt := (now - tl.lastAt).Seconds()
	if dt <= 0 {
		return
	}
	a := tl.smoothing
	for i, cur := range tl.cur {
		prev := tl.prev[i]
		t := &tl.tables[i]
		t.Swappable = cur.Swappable
		t.StoredBytes = cur.StoredBytes
		lookups := cur.Lookups - prev.Lookups
		smReads := cur.SMReads - prev.SMReads
		hits := cur.CacheHits - prev.CacheHits
		misses := cur.CacheMisses - prev.CacheMisses
		demoted := cur.DemoteWriteBytes - prev.DemoteWriteBytes

		rate := float64(lookups) / dt
		demand := rate * float64(cur.RowBytes)
		demoteRate := float64(demoted) / dt
		fmServed := 0.0
		if lookups > 0 {
			fmServed = 1 - float64(smReads)/float64(lookups)
		}
		reuse := 0.0
		if hits+misses > 0 {
			reuse = float64(hits) / float64(hits+misses)
		}
		if t.Windows == 0 {
			t.LookupRate, t.DemandBytes, t.FMServed, t.Reuse = rate, demand, fmServed, reuse
			t.DemoteRate = demoteRate
		} else {
			t.LookupRate += a * (rate - t.LookupRate)
			t.DemandBytes += a * (demand - t.DemandBytes)
			t.FMServed += a * (fmServed - t.FMServed)
			t.Reuse += a * (reuse - t.Reuse)
			t.DemoteRate += a * (demoteRate - t.DemoteRate)
		}
		t.Windows++
	}
	for i, cur := range tl.curR {
		prev := tl.prevR[i]
		r := &tl.ranges[i]
		r.FMResident = cur.FMResident
		if tl.cur[cur.Table].Target == placement.FM {
			// Whole-table FM serving bypasses range accounting: freeze the
			// last SM-phase estimate instead of decaying it with zeros.
			continue
		}
		rate := float64(cur.Lookups-prev.Lookups) / dt
		if r.Windows == 0 {
			r.LookupRate = rate
		} else {
			r.LookupRate += a * (rate - r.LookupRate)
		}
		r.Windows++
	}
	tl.prev = append(tl.prev[:0], tl.cur...)
	tl.prevR = append(tl.prevR[:0], tl.curR...)
	tl.lastAt = now
}

// Tables returns the decayed per-table telemetry (indexed by table).
func (tl *Telemetry) Tables() []TableTelemetry { return tl.tables }

// Ranges returns the decayed per-range telemetry in (table, range) order
// (empty before the first sample or for stores without range-provisioned
// tables).
func (tl *Telemetry) Ranges() []RangeTelemetry { return tl.ranges }

// Table returns table i's telemetry (zero value before the first sample).
func (tl *Telemetry) Table(i int) TableTelemetry {
	if i < 0 || i >= len(tl.tables) {
		return TableTelemetry{}
	}
	return tl.tables[i]
}
