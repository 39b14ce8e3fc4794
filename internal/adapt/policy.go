// The planner. One evaluation turns the decayed telemetry view into a move
// plan in three steps: build one candidate list, run the Table-5 greedy
// over it once (placement.PackRangesWear — the packer placement.New runs
// offline), and diff the selection against what is resident. Every
// candidate is one kind of item, a row window of a table (the whole table
// is the window [0, rows)); Granularity chooses which items are
// candidates, not the algorithm. The endurance-aware cost term lives in the
// packer: each candidate's score is discounted by the demote-write cost its
// selection implies, measured against the window's SM write budget, so
// hot-but-churny ranges stop burning endurance. The planner reads nothing
// but the telemetry and the pending moves; executing the plan is the
// actuator's job.

package adapt

import (
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
	// items is the telemetry the plan was made from, which wants reads the
	// items' windows from.
	items []itemTelemetry
	// decisions explains each candidate whose desired placement differs
	// from its current one — promote/demote when a final move covers it,
	// defer (busy or cap) when not. Populated only when the policy
	// explains; the default path does no extra work.
	decisions []obs.PlanDecision
}

// wants reports whether the plan still wants every item of m's kind (its
// whole table, or the ranges) inside m's window moved in m's direction —
// the predicate queued moves are reconciled against.
func (pl plan) wants(m move) bool {
	for _, it := range pl.items {
		if it.whole() == m.Whole && m.covers(it.Table, it.Lo, it.Lo+it.Rows) &&
			pl.desired[item{it.Table, it.Range}] != m.Promote {
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
	item placement.RangeItem
	// move flips the candidate's residency: a demotion when it is FM-resident
	// (range) or FM-target (whole table), else a promotion.
	move move
	busy bool // a pending move overlaps its window
}

// explainCand renders one changed candidate's verdict: a final move
// covering its window in the wanted direction makes it a promote/demote, a
// pending move makes it a busy defer, and everything else was truncated
// by the per-eval cap.
func explainCand(moves []move, c cand, hysteresis float64, wear placement.WearBudget) obs.PlanDecision {
	d := obs.PlanDecision{
		Table: c.item.Table, Range: int64(c.item.Range),
		Density: c.item.Density, Bytes: c.item.Bytes, DemoteBytes: c.item.DemoteBytes,
		WearWindowBytes: wear.WindowBytes, WearSpentBytes: wear.SpentBytes,
	}
	if !c.move.Promote {
		d.Hysteresis = hysteresis
	}
	d.Action, d.Reason = "defer", "cap"
	if c.busy {
		d.Reason = "busy"
		return d
	}
	for _, m := range moves {
		if m.Promote == c.move.Promote && m.covers(c.move.Table, c.move.Lo, c.move.Hi) {
			d.Action, d.Reason = "promote", ""
			if !m.Promote {
				d.Action = "demote"
			}
			break
		}
	}
	return d
}

// candidate reports whether it is one of the grain's candidates. At Tables
// grain every whole item is. At Ranges grain the whole items of FM-target
// tables are (an incumbent — a static FixedFM placement the controller
// inherited — that loses the knapsack is demoted wholesale, after which
// its ranges compete individually), and the range items of SM-target
// tables. An item no window has been folded into yet sits out, except a
// resident range, which stays so the diff can demote it.
func (p *policy) candidate(it itemTelemetry) bool {
	if it.whole() != (p.cfg.Granularity == Tables || it.Target == placement.FM) {
		return false
	}
	return it.Windows > 0 || (!it.whole() && it.FMResident)
}

// plan derives the next move plan from the telemetry view, the moves
// already pending in the actuator (planned around, not re-planned), and
// the window's wear budget (zero value disables the endurance term).
//
// Each candidate is scored by its density: a resident one defends its slot
// with the hysteresis advantage, and an absent one carries the later
// demote write of its full footprint, the endurance cost the wear term
// scores. A range must also clear the payback floor. Selected-but-absent
// candidates are promoted and resident-but-unselected ones demoted,
// adjacent windows of one table coalesced into a single [Lo, Hi) move.
func (p *policy) plan(telem *telemetry, pending []move, wear placement.WearBudget) plan {
	// The payback filter: a range must re-serve its own bytes from FM
	// within the horizon to justify migrating it (and, with hysteresis, to
	// keep its slot). Zeroing the density keeps the candidate in the move
	// diff — sub-floor residents are demoted — while the knapsack never
	// selects it.
	floor := 1 / p.cfg.PaybackSeconds
	p.cands = p.cands[:0]
	for _, it := range telem.items {
		if !p.candidate(it) {
			continue
		}
		c := cand{
			item: placement.RangeItem{Table: it.Table, Range: it.Range, Bytes: it.Bytes, Density: it.density()},
			move: move{
				Table: it.Table, Promote: !it.FMResident, Whole: it.whole(),
				Lo: it.Lo, Hi: it.Lo + it.Rows,
			},
		}
		if it.FMResident {
			c.item.Density *= p.cfg.Hysteresis
		} else {
			c.item.DemoteBytes = it.Bytes
		}
		if !it.whole() && c.item.Density < floor {
			c.item.Density = 0
		}
		for _, m := range pending {
			c.busy = c.busy || m.overlaps(c.move)
		}
		p.cands = append(p.cands, c)
	}

	p.items = p.items[:0]
	for _, c := range p.cands {
		p.items = append(p.items, c.item)
	}
	selected := make([]bool, len(p.cands))
	out := plan{desired: make(map[item]bool), items: telem.items}
	for _, i := range placement.PackRangesWear(p.items, p.budget, wear) {
		selected[i] = true
		out.desired[item{p.items[i].Table, p.items[i].Range}] = true
	}

	var demote, promote []move
	for i, c := range p.cands {
		if c.busy || selected[i] != c.move.Promote {
			continue // planned around, or already where the pack wants it
		}
		if c.move.Promote {
			promote = append(promote, c.move)
		} else {
			demote = append(demote, c.move)
		}
	}
	out.moves = append(coalesce(demote), coalesce(promote)...)
	if len(out.moves) > maxMovesPerEval {
		out.moves = out.moves[:maxMovesPerEval]
	}
	if p.explain {
		for i, c := range p.cands {
			if selected[i] == c.move.Promote {
				out.decisions = append(out.decisions, explainCand(out.moves, c, p.cfg.Hysteresis, wear))
			}
		}
	}
	return out
}
