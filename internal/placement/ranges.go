// Range-granular placement: the Table-5 greedy promotion generalized from
// whole tables to row ranges. The offline §4.6 knapsack ranks tables by
// bandwidth demand per byte of capacity; at range granularity the same
// ranking runs over [lo, hi) row windows, so a DRAM budget can hold the
// hot head of several tables instead of every byte of a few. PackRangesWear
// is the one implementation: New packs whole-table items from the static
// profile, the adapt subsystem packs tables or ranges from live demand.

package placement

import "sort"

// RangeItem is one knapsack candidate: a row range of a table (or, with
// Range == WholeTable, the table as a single indivisible item — how an
// adaptive controller scores a whole-table FM incumbent it can only demote
// wholesale).
type RangeItem struct {
	Table int
	Range int
	// Bytes is the item's stored footprint — what it costs against the
	// budget and what migrating it moves.
	Bytes int64
	// Density is the demand density ranking key (bytes/s of lookup demand
	// per byte of capacity), hysteresis already applied by the caller.
	Density float64
	// DemoteBytes is the SM write cost selecting this item implies: a
	// non-resident challenger will eventually be demote-written back to
	// SM when it cools, so churny candidates carry their footprint here,
	// while incumbents that merely keep their slot cost nothing. Only
	// consulted by the wear-aware packing (PackRangesWear).
	DemoteBytes int64
}

// WholeTable marks a RangeItem covering its entire table.
const WholeTable = -1

// WearBudget is the per-window SM write allowance wear-aware packing
// ranks against — derived by the caller from the device's EnduranceDWPD
// rating and remaining rated life (core.WearInfo.DailyWriteBudgetBytes).
// The zero value disables wear awareness entirely.
type WearBudget struct {
	// WindowBytes is the SM demote-write budget of one evaluation window;
	// <= 0 disables the wear term.
	WindowBytes int64
	// SpentBytes is what the current window has already written.
	SpentBytes int64
}

// Remaining returns the unspent window budget (0 when exhausted).
func (w WearBudget) Remaining() int64 {
	rem := w.WindowBytes - w.SpentBytes
	if rem < 0 {
		return 0
	}
	return rem
}

// PackRangesWear greedily selects items in decreasing score order under
// the byte budget and returns the indices of the selected items (in
// selection order). Zero-score items are never selected; ties break on
// (Table, Range) so the result is deterministic for any input order. Items
// too large for the remaining budget are skipped, not truncated — exactly
// the Table-5 greedy, at whatever granularity the items carry.
//
// The §3 endurance model enters as a cost term: each candidate's score is
// its demand density discounted by its demote-write cost against the window's remaining SM write budget —
// score = density · rem/(rem+DemoteBytes) — so a hot-but-churny range
// re-ranks below a slightly cooler one that costs no endurance, and once
// the window budget is spent (rem = 0), write-costing candidates stop
// being selected at all. The discount only ranks; *enforcing* the write
// budget is the actuator's job, which spreads demote chunks across
// windows — a cost larger than one window's budget is expensive, not
// impossible. Under a zero WearBudget the score is the density alone.
func PackRangesWear(items []RangeItem, budget int64, wear WearBudget) []int {
	rem := wear.Remaining()
	score := func(it RangeItem) float64 {
		if wear.WindowBytes <= 0 || it.DemoteBytes <= 0 {
			return it.Density
		}
		return it.Density * float64(rem) / float64(rem+it.DemoteBytes)
	}
	order := make([]int, len(items))
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool {
		ia, ib := items[order[a]], items[order[b]]
		sa, sb := score(ia), score(ib)
		if sa != sb {
			return sa > sb
		}
		if ia.Table != ib.Table {
			return ia.Table < ib.Table
		}
		return ia.Range < ib.Range
	})
	var out []int
	remaining := budget
	for _, i := range order {
		it := items[i]
		if score(it) <= 0 {
			break
		}
		if it.Bytes <= remaining {
			out = append(out, i)
			remaining -= it.Bytes
		}
	}
	return out
}
