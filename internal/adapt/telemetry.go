// Package adapt closes the loop the paper's §4.6 Tuning API leaves open:
// placement there is chosen once, offline, from a static locality profile,
// but production traffic drifts — hot sets rotate, the user mix shifts,
// flash crowds appear. An Adapter re-runs that placement online. Its unit
// is one item: a row window [lo, hi) of a swappable table, the whole table
// being the window [0, rows). Each evaluation folds every item's lookups
// into a decayed rate (this file), then plans with one algorithm
// (policy.go) over the telemetry alone: candidate list → pack → diff.
// Config.Granularity chooses which items are candidates, not the
// algorithm; the pack is placement.PackRangesWear, the same Table-5 greedy
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

// itemTelemetry is one item's decayed view of live traffic: the row window
// [Lo, Lo+Rows) of a swappable table — the whole table when Range is
// placement.WholeTable, else its row range Range.
type itemTelemetry struct {
	Table, Range int
	Lo, Rows     int64
	// Bytes is the window's stored footprint (what migrating it costs
	// against the budget and the bandwidth cap); RowBytes the table's
	// stored row size.
	Bytes    int64
	RowBytes int
	// FMResident and Target mirror the store at the last sample: whether
	// the window serves from FM, and the table's placement target. A
	// whole item is resident when its table is FM-target; a range reads
	// non-resident then (the store tracks whole-table placement by Target).
	FMResident bool
	Target     placement.Target
	// LookupRate is the decayed row-lookup rate (lookups/s of virtual
	// time). While its table is FM-target the store does not attribute
	// lookups to ranges, so a range's rate freezes at its last SM-phase
	// estimate — the best available profile when the table is later
	// demoted.
	LookupRate float64
	// Windows counts samples folded into LookupRate.
	Windows int
	// lookups is the store's cumulative lookup count at the last fold.
	lookups uint64
}

// density returns the bandwidth demand per byte of capacity — the greedy
// ranking key of the Table-5 FM promotion, computed from live stats
// instead of the static profile.
func (it itemTelemetry) density() float64 {
	if it.Bytes <= 0 {
		return 0
	}
	return it.LookupRate * float64(it.RowBytes) / float64(it.Bytes)
}

// whole reports whether the item is its table's [0, rows) window.
func (it itemTelemetry) whole() bool { return it.Range == placement.WholeTable }

// telemetry accumulates per-item windowed rates from a store's cumulative
// TableStats/RangeStats, decaying older windows exponentially. It computes
// what the planner reads and nothing else.
type telemetry struct {
	// smoothing is the EWMA weight of the newest window.
	smoothing float64
	// items holds every swappable table's whole item in table order, then
	// every range item in (table, range) order — RangeStats' order, which
	// lists the ranges of swappable tables only.
	items      []itemTelemetry
	firstRange int // the index of the first range item
	cur        []core.TableStat
	curR       []core.RangeStat
	lastAt     simclock.Time
	primed     bool
}

// newTelemetry builds a telemetry accumulator. smoothing is the EWMA
// weight of the newest window in (0, 1]; 0 selects 0.5.
func newTelemetry(smoothing float64) *telemetry {
	if smoothing <= 0 || smoothing > 1 {
		smoothing = 0.5
	}
	return &telemetry{smoothing: smoothing}
}

// sample refreshes every item's residency and target and folds the lookup
// deltas since the previous fold into the decayed rates. The first call
// only establishes the baseline.
func (tl *telemetry) sample(now simclock.Time, s *core.Store) {
	tl.cur = s.TableStats(tl.cur)
	tl.curR = s.RangeStats(tl.curR)
	if !tl.primed {
		tl.items = make([]itemTelemetry, 0, len(tl.cur)+len(tl.curR))
		for _, ts := range tl.cur {
			if ts.Swappable {
				tl.items = append(tl.items, itemTelemetry{
					Table: ts.Table, Range: placement.WholeTable, Rows: ts.StoredBytes / int64(ts.RowBytes),
					Bytes: ts.StoredBytes, RowBytes: ts.RowBytes, lookups: ts.Lookups,
				})
			}
		}
		tl.firstRange = len(tl.items)
		for _, rs := range tl.curR {
			ts := tl.cur[rs.Table]
			tl.items = append(tl.items, itemTelemetry{
				Table: rs.Table, Range: rs.Range, Lo: int64(rs.Range) * ts.RangeRows, Rows: rs.Rows,
				Bytes: rs.Bytes, RowBytes: ts.RowBytes, lookups: rs.Lookups,
			})
		}
		tl.lastAt = now
		tl.primed = true
	}
	dt := (now - tl.lastAt).Seconds()
	a := tl.smoothing
	for i := range tl.items {
		it := &tl.items[i]
		ts := tl.cur[it.Table]
		lookups := ts.Lookups
		it.Target, it.FMResident = ts.Target, ts.Target == placement.FM
		if !it.whole() {
			rs := tl.curR[i-tl.firstRange]
			lookups, it.FMResident = rs.Lookups, rs.FMResident
		}
		if dt <= 0 {
			continue // the baseline, or no virtual time passed since it
		}
		rate := float64(lookups-it.lookups) / dt
		it.lookups = lookups
		if !it.whole() && it.Target == placement.FM {
			// Whole-table FM serving bypasses range accounting: freeze the
			// last SM-phase estimate instead of decaying it with zeros.
			continue
		}
		if it.Windows == 0 {
			it.LookupRate = rate
		} else {
			it.LookupRate += a * (rate - it.LookupRate)
		}
		it.Windows++
	}
	if dt > 0 {
		tl.lastAt = now
	}
}
