// The planner. One evaluation turns the decayed telemetry view plus the
// store's current placement into a move plan in three steps: build one
// candidate list, run the Table-5 greedy over it once
// (placement.PackRangesWear — the packer placement.New runs offline), and
// diff the selection against what is resident. Granularity chooses the
// candidates, not the algorithm. The endurance-aware cost term lives in the
// packer: each candidate's score is discounted by the demote-write cost its
// selection implies, measured against the window's SM write budget, so
// hot-but-churny ranges stop burning endurance. The planner never touches
// the store's state; executing the plan is the actuator's job.

package adapt

import (
	"sdm/internal/core"
	"sdm/internal/obs"
	"sdm/internal/placement"
)

// item names one candidate: a row range of a table, or the whole table
// when rng is placement.WholeTable.
type item struct{ table, rng int }

// plan is one evaluation's output: the moves to enqueue plus the desired
// placement they derive from, so the caller can reconcile previously
// queued moves against the freshest intent.
type plan struct {
	// moves is the placement diff (demotions first, so the DRAM budget
	// holds throughout), truncated to maxMovesPerEval.
	moves []move
	// desired holds the candidates the pack selected for FM.
	desired map[item]bool
	// decisions explains each candidate whose desired placement differs
	// from its current one — promote/demote when a final move covers it,
	// defer (busy or cap) when not. Populated only when the policy
	// explains; the default path does no extra work.
	decisions []obs.PlanDecision
}

// wants reports whether the plan still wants every table or range m covers
// moved in m's direction — the predicate queued moves are reconciled
// against. rangeRows is the row width of m's table's ranges.
func (pl plan) wants(m move, rangeRows int64) bool {
	if !m.Ranged {
		return pl.desired[item{m.Table, placement.WholeTable}] == m.Promote
	}
	if rangeRows <= 0 {
		return false
	}
	for r := m.Lo / rangeRows; r*rangeRows < m.Hi; r++ {
		if pl.desired[item{m.Table, int(r)}] != m.Promote {
			return false
		}
	}
	return true
}

// policy is the pure planning layer of the adaptation stack. It holds only
// configuration and scratch buffers; every plan call derives the desired
// placement from its inputs alone.
type policy struct {
	cfg    Config // defaulted
	budget int64  // the FM byte budget the knapsack packs against

	// explain populates plan.decisions (the decision tracer's and the
	// metrics plane's view); off by default.
	explain bool

	// scratch buffers reused across evaluations.
	cands []cand
	items []placement.RangeItem
}

// cand carries one knapsack item plus the move metadata PackRangesWear
// does not need.
type cand struct {
	item     placement.RangeItem
	lo, hi   int64 // row window (range items)
	resident bool  // currently FM-resident (range) or FM-target (whole table)
	busy     bool  // a pending move already covers it
}

func (c cand) whole() bool { return c.item.Range == placement.WholeTable }

// explainCand renders one changed candidate's verdict: a final move
// covering it in the wanted direction makes it a promote/demote, a
// pending move makes it a busy defer, and everything else was truncated
// by the per-eval cap.
func explainCand(moves []move, c cand, hysteresis float64, wear placement.WearBudget) obs.PlanDecision {
	d := obs.PlanDecision{
		Table: c.item.Table, Range: int64(c.item.Range),
		Density: c.item.Density, Bytes: c.item.Bytes, DemoteBytes: c.item.DemoteBytes,
		WearWindowBytes: wear.WindowBytes, WearSpentBytes: wear.SpentBytes,
	}
	if c.resident {
		d.Hysteresis = hysteresis
	}
	d.Action, d.Reason = "defer", "cap"
	if c.busy {
		d.Reason = "busy"
		return d
	}
	for _, m := range moves {
		if m.Table != c.item.Table || m.Promote == c.resident {
			continue
		}
		if !m.Ranged || (!c.whole() && c.lo >= m.Lo && c.hi <= m.Hi) {
			d.Action, d.Reason = "promote", ""
			if c.resident {
				d.Action = "demote"
			}
			break
		}
	}
	return d
}

// plan derives the next move plan from the telemetry view, the store's
// current placement, the moves already pending in the actuator (planned
// around, not re-planned), and the window's wear budget (zero value
// disables the endurance term).
//
// The candidates, in order: every swappable table with telemetry is one
// indivisible whole-table item — an FM incumbent defending its slot with
// the hysteresis advantage, or (at table granularity) an SM challenger
// whose promotion implies a later demote write of its full footprint, the
// endurance cost the wear term scores. At range granularity an SM table
// contributes one item per row range instead, so a whole-table incumbent
// (a static FixedFM placement the controller inherited) that loses the
// knapsack is demoted wholesale, after which its ranges compete
// individually. Selected-but-absent candidates are promoted and
// resident-but-unselected ones demoted, adjacent ranges of one table
// coalesced into a single [Lo, Hi) move.
func (p *policy) plan(telem *telemetry, store *core.Store, pending []move, wear placement.WearBudget) plan {
	ranges := p.cfg.Granularity == Ranges
	busy := make(map[item]bool, len(pending))
	for _, j := range pending {
		if !j.Ranged || !ranges {
			busy[item{j.Table, placement.WholeTable}] = true
			continue
		}
		rr := store.RangeRowsOf(j.Table)
		if rr <= 0 {
			continue
		}
		for r := j.Lo / rr; r*rr < j.Hi; r++ {
			busy[item{j.Table, int(r)}] = true
		}
	}

	p.cands = p.cands[:0]
	for _, t := range telem.tables {
		inFM := store.TargetOf(t.Table) == placement.FM
		if !t.Swappable || t.Windows == 0 || (ranges && !inFM) {
			continue
		}
		c := cand{
			item: placement.RangeItem{
				Table: t.Table, Range: placement.WholeTable,
				Bytes: t.StoredBytes, Density: t.density(),
			},
			resident: inFM,
			busy:     busy[item{t.Table, placement.WholeTable}],
		}
		if inFM {
			c.item.Density *= p.cfg.Hysteresis
		} else {
			c.item.DemoteBytes = t.StoredBytes
		}
		p.cands = append(p.cands, c)
	}
	if ranges {
		// The payback filter: a range must re-serve its own bytes from FM
		// within the horizon to justify migrating it (and, with hysteresis, to
		// keep its slot). Zeroing the density keeps the candidate in the move
		// diff — sub-floor residents are demoted — while the knapsack never
		// selects it.
		floor := 1 / p.cfg.PaybackSeconds
		rr := int64(0)
		lastTable := -1
		for _, rt := range telem.ranges {
			if store.TargetOf(rt.Table) == placement.FM || (rt.Windows == 0 && !rt.FMResident) {
				continue
			}
			if rt.Table != lastTable {
				rr = store.RangeRowsOf(rt.Table)
				lastTable = rt.Table
			}
			if rr <= 0 {
				continue
			}
			density := rt.density()
			var demote int64
			if rt.FMResident {
				density *= p.cfg.Hysteresis
			} else {
				demote = rt.Bytes
			}
			if density < floor {
				density = 0
			}
			lo := int64(rt.Range) * rr
			p.cands = append(p.cands, cand{
				item: placement.RangeItem{
					Table: rt.Table, Range: rt.Range, Bytes: rt.Bytes,
					Density: density, DemoteBytes: demote,
				},
				lo: lo, hi: lo + rt.Rows,
				resident: rt.FMResident,
				busy:     busy[item{rt.Table, placement.WholeTable}] || busy[item{rt.Table, rt.Range}],
			})
		}
	}

	p.items = p.items[:0]
	for _, c := range p.cands {
		p.items = append(p.items, c.item)
	}
	selected := make([]bool, len(p.cands))
	out := plan{desired: make(map[item]bool)}
	for _, i := range placement.PackRangesWear(p.items, p.budget, wear) {
		selected[i] = true
		out.desired[item{p.items[i].Table, p.items[i].Range}] = true
	}

	var demote, promote []move
	for i, c := range p.cands {
		if c.busy || selected[i] == c.resident {
			continue
		}
		m := move{Table: c.item.Table, Promote: !c.resident}
		if !c.whole() {
			m.Ranged, m.Lo, m.Hi = true, c.lo, c.hi
		}
		if c.resident {
			demote = append(demote, m)
		} else {
			promote = append(promote, m)
		}
	}
	out.moves = append(coalesce(demote), coalesce(promote)...)
	if len(out.moves) > maxMovesPerEval {
		out.moves = out.moves[:maxMovesPerEval]
	}
	if p.explain {
		for i, c := range p.cands {
			if selected[i] != c.resident {
				out.decisions = append(out.decisions, explainCand(out.moves, c, p.cfg.Hysteresis, wear))
			}
		}
	}
	return out
}
