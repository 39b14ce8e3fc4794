package adapt

import (
	"fmt"
	"reflect"
	"testing"

	"sdm/internal/core"
	"sdm/internal/model"
	"sdm/internal/obs"
	"sdm/internal/placement"
	"sdm/internal/uring"
	"sdm/internal/xrand"
)

// The two planners the single policy.plan replaced — whole tables and row
// ranges each had their own candidate list, pack call, diff and explain
// loop — kept verbatim (identifiers renamed only) as the reference the
// merged planner must match plan for plan, with the two-map desired set and
// the reconciliation predicate that read it.

// legacyPlan is the old Plan: one desired map per candidate kind.
type legacyPlan struct {
	Moves []move
	// DesiredWhole records the planned whole-table FM membership. At
	// table granularity only selected tables appear (true); at range
	// granularity every whole-table incumbent candidate appears with its
	// verdict.
	DesiredWhole map[int]bool
	// DesiredRange records, at range granularity, each scored
	// (table, range) candidate's verdict, keyed by legacyRangeKey.
	DesiredRange map[int64]bool
	Decisions    []obs.PlanDecision
}

// legacyRangeKey packs a (table, range) pair into the DesiredRange map key.
func legacyRangeKey(table int, r int64) int64 { return int64(table)<<32 | r }

// legacyPolicy is the old Policy's state.
type legacyPolicy struct {
	cfg     Config
	budget  int64
	explain bool
	cands   []legacyRangeCand
	items   []placement.RangeItem
}

// plan is the old Policy.Plan: a branch on granularity.
func (p *legacyPolicy) plan(telem *telemetry, store *core.Store, pending []move, wear placement.WearBudget) legacyPlan {
	if p.cfg.Granularity == Ranges {
		return p.legacyPlanRanges(telem, store, pending, wear)
	}
	return p.legacyPlanTables(telem, store, pending, wear)
}

// desired flattens the two legacy maps into the merged planner's form: the
// set of candidates selected for FM.
func (lp legacyPlan) desired() map[item]bool {
	out := map[item]bool{}
	for t, ok := range lp.DesiredWhole {
		if ok {
			out[item{t, placement.WholeTable}] = true
		}
	}
	for k, ok := range lp.DesiredRange {
		if ok {
			out[item{int(k >> 32), int(k & (1<<32 - 1))}] = true
		}
	}
	return out
}

// legacyPlanTables re-runs the Table-5 greedy FM promotion against live demand
// densities and returns the placement diff as whole-table moves
// (demotions first, so the DRAM budget is respected throughout).
func (p *legacyPolicy) legacyPlanTables(telem *telemetry, store *core.Store, pending []move, wear placement.WearBudget) legacyPlan {
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
	for _, t := range telem.tables {
		if !t.Swappable || t.Windows == 0 {
			continue
		}
		c := cand{table: t.Table, inFM: store.TargetOf(t.Table) == placement.FM}
		density := t.density()
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
	var moves []move
	for _, c := range cands {
		if c.inFM && !desired[c.table] && !busy[c.table] {
			moves = append(moves, move{Table: c.table, Promote: false})
		}
	}
	for _, c := range cands {
		if !c.inFM && desired[c.table] && !busy[c.table] {
			moves = append(moves, move{Table: c.table, Promote: true})
		}
	}
	if len(moves) > maxMovesPerEval {
		moves = moves[:maxMovesPerEval]
	}
	plan := legacyPlan{Moves: moves, DesiredWhole: desired}
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
			plan.Decisions = append(plan.Decisions, legacyExplainCand(moves, d, busy[c.table], !c.inFM, true, 0, 0, wear))
		}
	}
	return plan
}

// legacyRangeCand carries one knapsack item plus the move metadata PackRangesWear
// does not need.
type legacyRangeCand struct {
	item     placement.RangeItem
	lo, hi   int64 // row window (range items)
	resident bool  // currently FM-resident (range) or FM-target (whole)
	whole    bool  // whole-table item (an FM incumbent, demotable only wholesale)
	busy     bool  // a pending move already covers it
}

// legacyPlanRanges runs the Table-5 greedy at row-range granularity: SM tables
// contribute one candidate per row range, while a whole-table FM
// incumbent (a static FixedFM placement the controller inherited)
// participates as a single indivisible item — if it loses the knapsack it
// is demoted wholesale, after which its ranges compete individually.
// Selected-but-absent ranges are promoted, resident-but-unselected ones
// demoted (first, so the budget holds throughout), with adjacent ranges of
// one table coalesced into a single [Lo, Hi) move.
func (p *legacyPolicy) legacyPlanRanges(telem *telemetry, store *core.Store, pending []move, wear placement.WearBudget) legacyPlan {
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
			busyRange[legacyRangeKey(j.Table, r)] = true
		}
	}

	p.cands = p.cands[:0]
	for _, t := range telem.tables {
		if !t.Swappable {
			continue
		}
		if store.TargetOf(t.Table) == placement.FM {
			if t.Windows == 0 {
				continue
			}
			p.cands = append(p.cands, legacyRangeCand{
				item: placement.RangeItem{
					Table:   t.Table,
					Range:   placement.WholeTable,
					Bytes:   t.StoredBytes,
					Density: t.density() * p.cfg.Hysteresis,
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
	for _, rt := range telem.ranges {
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
		p.cands = append(p.cands, legacyRangeCand{
			item: placement.RangeItem{
				Table:       rt.Table,
				Range:       rt.Range,
				Bytes:       rt.Bytes,
				Density:     density,
				DemoteBytes: demote,
			},
			lo: lo, hi: lo + rt.Rows,
			resident: rt.FMResident,
			busy:     busyTable[rt.Table] || busyRange[legacyRangeKey(rt.Table, int64(rt.Range))],
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
			desiredRange[legacyRangeKey(c.item.Table, int64(c.item.Range))] = desired[i]
		}
	}

	var demote, promote []move
	for i, c := range p.cands {
		if c.busy || desired[i] == c.resident {
			continue
		}
		if c.resident {
			if c.whole {
				demote = append(demote, move{Table: c.item.Table, Promote: false})
			} else {
				demote = append(demote, move{Table: c.item.Table, Promote: false, Ranged: true, Lo: c.lo, Hi: c.hi})
			}
		} else {
			promote = append(promote, move{Table: c.item.Table, Promote: true, Ranged: true, Lo: c.lo, Hi: c.hi})
		}
	}
	moves := append(coalesce(demote), coalesce(promote)...)
	if len(moves) > maxMovesPerEval {
		moves = moves[:maxMovesPerEval]
	}
	plan := legacyPlan{Moves: moves, DesiredWhole: desiredWhole, DesiredRange: desiredRange}
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
			plan.Decisions = append(plan.Decisions, legacyExplainCand(moves, d, c.busy, !c.resident, c.whole, c.lo, c.hi, wear))
		}
	}
	return plan
}

// legacyExplainCand renders one changed candidate's verdict: a final move
// covering it in the wanted direction makes it a promote/demote, a
// pending move makes it a busy defer, and everything else was truncated
// by the per-eval cap.
func legacyExplainCand(moves []move, d obs.PlanDecision, busy, wantPromote, whole bool, lo, hi int64, wear placement.WearBudget) obs.PlanDecision {
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

// legacyAgreesWith returns the reconciliation predicate for a fresh plan: a
// queued move survives only if the plan still wants every table or range
// it covers moved in its direction.
func legacyAgreesWith(store *core.Store, plan legacyPlan) func(move) bool {
	return func(j move) bool {
		if !j.Ranged {
			return plan.DesiredWhole[j.Table] == j.Promote
		}
		rr := store.RangeRowsOf(j.Table)
		if rr <= 0 {
			return false
		}
		for r := j.Lo / rr; r*rr < j.Hi; r++ {
			if plan.DesiredRange[legacyRangeKey(j.Table, r)] != j.Promote {
				return false
			}
		}
		return true
	}
}

// planFixture opens a ReserveSM, range-provisioned store with two
// whole-table FM incumbents (tables the static FixedFM plan promoted) and
// four SM tables, promotes two head ranges of one SM table for real, and
// returns telemetry primed from it.
func planFixture(t *testing.T) (*core.Store, *telemetry) {
	t.Helper()
	mc := model.M1()
	mc.NumUserTables = 6
	mc.NumItemTables = 1
	mc.ItemBatch = 2
	mc.TotalBytes = 1 << 21
	inst, err := model.Build(mc, 1, 41)
	if err != nil {
		t.Fatal(err)
	}
	const perTable = 160 << 10
	for i := 0; i < mc.NumUserTables; i++ {
		inst.Tables[i].Rows = perTable / int64(inst.Tables[i].RowBytes())
	}
	tables, err := inst.Materialize()
	if err != nil {
		t.Fatal(err)
	}
	s, err := core.Open(inst, tables, core.Config{
		Seed: 17, ReserveSM: true, Ring: uring.Config{SGL: true},
		CacheBytes: 1 << 15, MigrationRangeBytes: 16 << 10,
		Placement: placement.Config{
			Policy: placement.FixedFMWithCache, UserTablesOnly: true, DRAMBudget: 2*perTable + perTable/2,
		},
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	var sm []int
	for i := 0; i < mc.NumUserTables; i++ {
		if s.TargetOf(i) == placement.SM {
			sm = append(sm, i)
		}
	}
	if len(sm) != 4 {
		t.Fatalf("fixture wants 2 whole-FM incumbents and 4 SM tables, got SM tables %v", sm)
	}
	m, err := s.BeginPromoteRange(sm[0], 0, 2*s.RangeRowsOf(sm[0]), 8<<10)
	if err != nil {
		t.Fatal(err)
	}
	migrate(t, m, s.LoadDone())
	tl := newTelemetry(0.5)
	tl.sample(s.LoadDone()+1, s)
	return s, tl
}

func TestPlanMatchesLegacyPlanners(t *testing.T) {
	s, tl := planFixture(t)
	var smTable, fmTable int
	for _, tt := range tl.tables {
		if !tt.Swappable {
			continue
		}
		if s.TargetOf(tt.Table) == placement.FM {
			fmTable = tt.Table
		} else {
			smTable = tt.Table
		}
	}
	rr := s.RangeRowsOf(smTable)
	const budget = 400 << 10
	wears := []placement.WearBudget{
		{}, // wear awareness off
		{WindowBytes: 64 << 10, SpentBytes: 16 << 10}, // binding
		{WindowBytes: 64 << 10, SpentBytes: 64 << 10}, // spent
	}
	pendings := [][]move{
		nil,
		{{Table: fmTable}, {Table: smTable, Promote: true}},
		{{Table: smTable, Promote: true, Ranged: true, Lo: 2 * rr, Hi: 5 * rr}},
	}
	// Demand levels dense in exact ties, in units of the payback floor
	// (density 0.1 at the default 10 s): zero, sub-floor, sub-floor even
	// with hysteresis, just above, and hot.
	levels := []float64{0, 0.05, 0.09, 0.2, 0.2, 1, 1, 5}
	rng := xrand.New(0x5eed)
	seen := map[string]int{} // what the compared plans exercised
	for state := 0; state < 240; state++ {
		for i := range tl.tables {
			tt := &tl.tables[i]
			tt.Windows = rng.Intn(4)
			tt.DemandBytes = levels[rng.Intn(len(levels))] * float64(tt.StoredBytes)
		}
		for i := range tl.ranges {
			rt := &tl.ranges[i]
			rt.Windows = rng.Intn(3)
			rt.FMResident = rng.Intn(3) == 0
			rt.LookupRate = levels[rng.Intn(len(levels))] * float64(rt.Bytes) / float64(rt.RowBytes)
		}
		for _, g := range []Granularity{Tables, Ranges} {
			cfg := Config{Granularity: g}.defaulted()
			for wi, wear := range wears {
				for pi, pending := range pendings {
					for _, explain := range []bool{false, true} {
						legacy := &legacyPolicy{cfg: cfg, budget: budget, explain: explain}
						merged := &policy{cfg: cfg, budget: budget, explain: explain}
						want := legacy.plan(tl, s, pending, wear)
						got := merged.plan(tl, s, pending, wear)
						at := fmt.Sprintf("state %d, %v, wear %d, pending %d, explain %t", state, g, wi, pi, explain)
						if !reflect.DeepEqual(got.moves, want.Moves) {
							t.Fatalf("%s: moves\n got %+v\nwant %+v", at, got.moves, want.Moves)
						}
						if !reflect.DeepEqual(got.desired, want.desired()) {
							t.Fatalf("%s: desired set\n got %v\nwant %v", at, got.desired, want.desired())
						}
						if !reflect.DeepEqual(got.decisions, want.Decisions) {
							t.Fatalf("%s: decisions\n got %+v\nwant %+v", at, got.decisions, want.Decisions)
						}
						for _, m := range got.moves {
							seen[fmt.Sprintf("move promote=%t ranged=%t", m.Promote, m.Ranged)]++
						}
						for _, d := range got.decisions {
							seen["decision "+d.Action+" "+d.Reason]++
						}
						agrees := legacyAgreesWith(s, want)
						for _, m := range append(append([]move(nil), pending...), want.Moves...) {
							for _, m := range []move{m, {Table: m.Table, Promote: !m.Promote, Ranged: m.Ranged, Lo: m.Lo, Hi: m.Hi}} {
								if got.wants(m, s.RangeRowsOf(m.Table)) != agrees(m) {
									t.Fatalf("%s: wants(%+v) = %t, legacy reconciliation says %t", at, m, !agrees(m), agrees(m))
								}
							}
						}
					}
				}
			}
		}
	}
	for _, k := range []string{
		"move promote=false ranged=false", "move promote=true ranged=false",
		"move promote=false ranged=true", "move promote=true ranged=true",
		"decision promote ", "decision demote ", "decision defer busy", "decision defer cap",
	} {
		if seen[k] == 0 {
			t.Fatalf("no compared plan held a %q: the fixture stopped exercising it (%v)", k, seen)
		}
	}
}
