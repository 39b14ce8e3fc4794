// Package adapt closes the loop the paper's §4.6 Tuning API leaves open:
// placement there is chosen once, offline, from a static locality profile,
// but production traffic drifts — hot sets rotate, the user mix shifts,
// flash crowds appear. An Adapter re-runs that placement online. Each
// evaluation samples per-table and per-range windowed telemetry with
// exponential decay (this file), then plans with one algorithm (policy.go):
// candidate list → pack → diff. The candidates are whole tables or row
// ranges — Config.Granularity chooses the candidates, not the algorithm —
// the pack is placement.PackRangesWear, the same Table-5 greedy
// placement.New runs offline, and the diff against what is resident becomes
// the moves a migration engine (actuator.go) carries FM↔SM through the
// store's rings under a configurable bandwidth cap, so migration IO is
// accounted in virtual time and visibly competes with foreground queries.
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

// tableTelemetry is one table's decayed view of live traffic.
type tableTelemetry struct {
	Table     int
	Swappable bool
	// StoredBytes is the table's migratable footprint.
	StoredBytes int64
	// DemandBytes is the decayed bandwidth demand (bytes/s the table's
	// lookups would pull if every row came from its backing store).
	DemandBytes float64
	// Windows counts samples folded into the decayed values.
	Windows int
}

// density returns the bandwidth demand per byte of capacity — the greedy
// ranking key of the Table-5 FM promotion, computed from live stats
// instead of the static profile.
func (t tableTelemetry) density() float64 {
	if t.StoredBytes <= 0 {
		return 0
	}
	return t.DemandBytes / float64(t.StoredBytes)
}

// rangeTelemetry is one row range's decayed view of live traffic — the
// demand signal behind range-granular re-placement.
type rangeTelemetry struct {
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

// density returns the bandwidth demand per byte of capacity — the ranking
// key of the range-granular knapsack, comparable with tableTelemetry.density.
func (r rangeTelemetry) density() float64 {
	if r.Bytes <= 0 {
		return 0
	}
	return r.LookupRate * float64(r.RowBytes) / float64(r.Bytes)
}

// telemetry accumulates per-table and per-range windowed counters from a
// store's cumulative TableStats/RangeStats, decaying older windows
// exponentially. It computes what the planner ranks by and nothing else.
type telemetry struct {
	// smoothing is the EWMA weight of the newest window.
	smoothing float64
	tables    []tableTelemetry // indexed by table
	prev      []core.TableStat
	cur       []core.TableStat // scratch
	ranges    []rangeTelemetry // in (table, range) order
	prevR     []core.RangeStat
	curR      []core.RangeStat // scratch
	lastAt    simclock.Time
	primed    bool
}

// newTelemetry builds a telemetry accumulator. smoothing is the EWMA
// weight of the newest window in (0, 1]; 0 selects 0.5.
func newTelemetry(smoothing float64) *telemetry {
	if smoothing <= 0 || smoothing > 1 {
		smoothing = 0.5
	}
	return &telemetry{smoothing: smoothing}
}

// sample folds the counter deltas since the previous sample into the
// decayed telemetry. The first call only establishes the baseline.
func (tl *telemetry) sample(now simclock.Time, s *core.Store) {
	tl.cur = s.TableStats(tl.cur)
	tl.curR = s.RangeStats(tl.curR)
	if !tl.primed {
		tl.prev = append(tl.prev[:0], tl.cur...)
		tl.prevR = append(tl.prevR[:0], tl.curR...)
		tl.tables = make([]tableTelemetry, len(tl.cur))
		for i, ts := range tl.cur {
			tl.tables[i] = tableTelemetry{Table: ts.Table, Swappable: ts.Swappable, StoredBytes: ts.StoredBytes}
		}
		tl.ranges = make([]rangeTelemetry, len(tl.curR))
		for i, rs := range tl.curR {
			tl.ranges[i] = rangeTelemetry{
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
		demand := float64(cur.Lookups-prev.Lookups) / dt * float64(cur.RowBytes)
		if t.Windows == 0 {
			t.DemandBytes = demand
		} else {
			t.DemandBytes += a * (demand - t.DemandBytes)
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
