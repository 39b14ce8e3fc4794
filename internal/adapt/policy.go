// The policy half of the policy/actuator split: a Policy is a pure
// planner — it turns the decayed telemetry view plus the store's current
// placement into a ranked move plan by re-running the Table-5 greedy
// (placement.PackRangesWear) against live demand densities, with an
// endurance-aware cost term: each candidate's score is discounted by the
// demote-write cost its selection implies, measured against the window's
// SM write budget, so hot-but-churny ranges stop burning endurance. The
// Policy never touches the store's state; executing the plan is the
// Actuator's job.

package adapt

import (
	"sdm/internal/core"
	"sdm/internal/obs"
	"sdm/internal/placement"
)

// Plan is one evaluation's output: the moves to enqueue plus the desired
// placement they derive from, so the caller can reconcile previously
// queued moves against the freshest intent.
type Plan struct {
	// Moves is the placement diff (demotions first, so the DRAM budget
	// holds throughout), truncated to maxMovesPerEval.
	Moves []Move
	// DesiredWhole records the planned whole-table FM membership. At
	// table granularity only selected tables appear (true); at range
	// granularity every whole-table incumbent candidate appears with its
	// verdict.
	DesiredWhole map[int]bool
	// DesiredRange records, at range granularity, each scored
	// (table, range) candidate's verdict, keyed by RangeKey.
	DesiredRange map[int64]bool
	// Decisions explains each candidate whose desired placement differs
	// from its current one — promote/demote when a final move covers it,
	// defer (busy or cap) when not. Populated only under SetExplain; the
	// default path does no extra work.
	Decisions []obs.PlanDecision
}

// RangeKey packs a (table, range) pair into the DesiredRange map key.
func RangeKey(table int, r int64) int64 { return int64(table)<<32 | r }

// Policy is the pure planning layer of the adaptation stack. It holds
// only configuration and scratch buffers; every Plan call derives the
// desired placement from its inputs alone.
type Policy struct {
	cfg    Config
	budget int64

	// explain populates Plan.Decisions (the decision tracer's view);
	// off by default.
	explain bool

	// scratch buffers reused across evaluations.
	cands []rangeCand
	items []placement.RangeItem
}

// NewPolicy builds a planner. cfg must already be validated; budget is
// the FM byte budget the knapsack packs against.
func NewPolicy(cfg Config, budget int64) *Policy {
	return &Policy{cfg: cfg.defaulted(), budget: budget}
}

// SetExplain toggles Plan.Decisions population (decision tracing).
func (p *Policy) SetExplain(on bool) { p.explain = on }

// explainCand renders one changed candidate's verdict: a final move
// covering it in the wanted direction makes it a promote/demote, a
// pending move makes it a busy defer, and everything else was truncated
// by the per-eval cap.
func explainCand(moves []Move, d obs.PlanDecision, busy, wantPromote, whole bool, lo, hi int64, wear placement.WearBudget) obs.PlanDecision {
	d.WearWindowBytes = wear.WindowBytes
	d.WearSpentBytes = wear.SpentBytes
	if busy {
		d.Action, d.Reason = "defer", "busy"
		return d
	}
	covered := false
	for _, m := range moves {
		if m.Table != d.Table || m.Promote != wantPromote {
			continue
		}
		if !m.Ranged {
			covered = true
			break
		}
		if !whole && lo >= m.Lo && hi <= m.Hi {
			covered = true
			break
		}
	}
	switch {
	case !covered:
		d.Action, d.Reason = "defer", "cap"
	case wantPromote:
		d.Action = "promote"
	default:
		d.Action = "demote"
	}
	return d
}

// Plan derives the next move plan from the telemetry view, the store's
// current placement, the moves already pending in the actuator (planned
// around, not re-planned), and the window's wear budget (zero value
// disables the endurance term).
func (p *Policy) Plan(telem *Telemetry, store *core.Store, pending []Move, wear placement.WearBudget) Plan {
	if p.cfg.Granularity == Ranges {
		return p.planRanges(telem, store, pending, wear)
	}
	return p.planTables(telem, store, pending, wear)
}

// planTables re-runs the Table-5 greedy FM promotion against live demand
// densities and returns the placement diff as whole-table moves
// (demotions first, so the DRAM budget is respected throughout).
func (p *Policy) planTables(telem *Telemetry, store *core.Store, pending []Move, wear placement.WearBudget) Plan {
	busy := make(map[int]bool, len(pending))
	for _, j := range pending {
		busy[j.Table] = true
	}

	type cand struct {
		table int
		inFM  bool
	}
	var cands []cand
	p.items = p.items[:0]
	for _, t := range telem.Tables() {
		if !t.Swappable || t.Windows == 0 {
			continue
		}
		c := cand{table: t.Table, inFM: store.TargetOf(t.Table) == placement.FM}
		density := t.Density()
		var demote int64
		if c.inFM {
			// Stickiness: an incumbent defends its slot unless a
			// challenger beats it by the hysteresis factor.
			density *= p.cfg.Hysteresis
		} else {
			// A challenger's promotion implies a later demote write of
			// its full footprint — the endurance cost the wear term
			// scores against.
			demote = t.StoredBytes
		}
		cands = append(cands, c)
		p.items = append(p.items, placement.RangeItem{
			Table:       t.Table,
			Range:       placement.WholeTable,
			Bytes:       t.StoredBytes,
			Density:     density,
			DemoteBytes: demote,
		})
	}
	// The desired FM set under the budget: the shared Table-5 greedy,
	// here over whole-table items only.
	desired := make(map[int]bool, len(cands))
	for _, i := range placement.PackRangesWear(p.items, p.budget, wear) {
		desired[p.items[i].Table] = true
	}

	// Diff against current placement; demotions first.
	var moves []Move
	for _, c := range cands {
		if c.inFM && !desired[c.table] && !busy[c.table] {
			moves = append(moves, Move{Table: c.table, Promote: false})
		}
	}
	for _, c := range cands {
		if !c.inFM && desired[c.table] && !busy[c.table] {
			moves = append(moves, Move{Table: c.table, Promote: true})
		}
	}
	if len(moves) > maxMovesPerEval {
		moves = moves[:maxMovesPerEval]
	}
	plan := Plan{Moves: moves, DesiredWhole: desired}
	if p.explain {
		for i, c := range cands {
			if desired[c.table] == c.inFM {
				continue
			}
			it := p.items[i]
			d := obs.PlanDecision{Table: c.table, Range: -1, Density: it.Density, Bytes: it.Bytes, DemoteBytes: it.DemoteBytes}
			if c.inFM {
				d.Hysteresis = p.cfg.Hysteresis
			}
			plan.Decisions = append(plan.Decisions, explainCand(moves, d, busy[c.table], !c.inFM, true, 0, 0, wear))
		}
	}
	return plan
}

// rangeCand carries one knapsack item plus the move metadata PackRangesWear
// does not need.
type rangeCand struct {
	item     placement.RangeItem
	lo, hi   int64 // row window (range items)
	resident bool  // currently FM-resident (range) or FM-target (whole)
	whole    bool  // whole-table item (an FM incumbent, demotable only wholesale)
	busy     bool  // a pending move already covers it
}

// planRanges runs the Table-5 greedy at row-range granularity: SM tables
// contribute one candidate per row range, while a whole-table FM
// incumbent (a static FixedFM placement the controller inherited)
// participates as a single indivisible item — if it loses the knapsack it
// is demoted wholesale, after which its ranges compete individually.
// Selected-but-absent ranges are promoted, resident-but-unselected ones
// demoted (first, so the budget holds throughout), with adjacent ranges of
// one table coalesced into a single [Lo, Hi) move.
func (p *Policy) planRanges(telem *Telemetry, store *core.Store, pending []Move, wear placement.WearBudget) Plan {
	busyTable := make(map[int]bool)   // whole-table move pending
	busyRange := make(map[int64]bool) // (table, range) moves pending
	for _, j := range pending {
		if !j.Ranged {
			busyTable[j.Table] = true
			continue
		}
		rr := store.RangeRowsOf(j.Table)
		if rr <= 0 {
			continue
		}
		for r := j.Lo / rr; r*rr < j.Hi; r++ {
			busyRange[RangeKey(j.Table, r)] = true
		}
	}

	p.cands = p.cands[:0]
	for _, t := range telem.Tables() {
		if !t.Swappable {
			continue
		}
		if store.TargetOf(t.Table) == placement.FM {
			if t.Windows == 0 {
				continue
			}
			p.cands = append(p.cands, rangeCand{
				item: placement.RangeItem{
					Table:   t.Table,
					Range:   placement.WholeTable,
					Bytes:   t.StoredBytes,
					Density: t.Density() * p.cfg.Hysteresis,
				},
				lo: 0, hi: -1,
				resident: true,
				whole:    true,
				busy:     busyTable[t.Table],
			})
		}
	}
	// The payback filter: a range must re-serve its own bytes from FM
	// within the horizon to justify migrating it (and, with hysteresis, to
	// keep its slot). Zeroing the density keeps the candidate in the move
	// diff — sub-floor residents are demoted — while the knapsack never
	// selects it.
	floor := 1 / p.cfg.PaybackSeconds
	rr := int64(0)
	lastTable := -1
	for _, rt := range telem.Ranges() {
		if store.TargetOf(rt.Table) == placement.FM {
			continue // covered by the whole-table incumbent item
		}
		if rt.Windows == 0 && !rt.FMResident {
			continue
		}
		if rt.Table != lastTable {
			rr = store.RangeRowsOf(rt.Table)
			lastTable = rt.Table
		}
		if rr <= 0 {
			continue
		}
		density := rt.Density()
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
		p.cands = append(p.cands, rangeCand{
			item: placement.RangeItem{
				Table:       rt.Table,
				Range:       rt.Range,
				Bytes:       rt.Bytes,
				Density:     density,
				DemoteBytes: demote,
			},
			lo: lo, hi: lo + rt.Rows,
			resident: rt.FMResident,
			busy:     busyTable[rt.Table] || busyRange[RangeKey(rt.Table, int64(rt.Range))],
		})
	}

	p.items = p.items[:0]
	for _, c := range p.cands {
		p.items = append(p.items, c.item)
	}
	desired := make([]bool, len(p.cands))
	for _, i := range placement.PackRangesWear(p.items, p.budget, wear) {
		desired[i] = true
	}

	desiredWhole := make(map[int]bool)
	desiredRange := make(map[int64]bool)
	for i, c := range p.cands {
		if c.whole {
			desiredWhole[c.item.Table] = desired[i]
		} else {
			desiredRange[RangeKey(c.item.Table, int64(c.item.Range))] = desired[i]
		}
	}

	var demote, promote []Move
	for i, c := range p.cands {
		if c.busy || desired[i] == c.resident {
			continue
		}
		if c.resident {
			if c.whole {
				demote = append(demote, Move{Table: c.item.Table, Promote: false})
			} else {
				demote = append(demote, Move{Table: c.item.Table, Promote: false, Ranged: true, Lo: c.lo, Hi: c.hi})
			}
		} else {
			promote = append(promote, Move{Table: c.item.Table, Promote: true, Ranged: true, Lo: c.lo, Hi: c.hi})
		}
	}
	moves := append(coalesce(demote), coalesce(promote)...)
	if len(moves) > maxMovesPerEval {
		moves = moves[:maxMovesPerEval]
	}
	plan := Plan{Moves: moves, DesiredWhole: desiredWhole, DesiredRange: desiredRange}
	if p.explain {
		for i, c := range p.cands {
			if desired[i] == c.resident {
				continue
			}
			d := obs.PlanDecision{Table: c.item.Table, Range: int64(c.item.Range), Density: c.item.Density, Bytes: c.item.Bytes, DemoteBytes: c.item.DemoteBytes}
			if c.whole {
				d.Range = -1
			}
			if c.resident {
				d.Hysteresis = p.cfg.Hysteresis
			}
			plan.Decisions = append(plan.Decisions, explainCand(moves, d, c.busy, !c.resident, c.whole, c.lo, c.hi, wear))
		}
	}
	return plan
}
