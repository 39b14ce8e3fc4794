// Package placement implements the table-placement policies of §4.6
// (Table 5): with a software-defined cache in FM, each table either maps
// wholly to SM (relying on the FM cache for hot rows) or is placed directly
// in FM within a configurable DRAM budget; tables with low temporal
// locality can additionally have their SM cache disabled. The paper's
// Tuning API — pre-defined policies by table size and pooling factor, a
// deny-list of tables that must not go to SM, and the DRAM budget — is
// reproduced as Config fields.
//
// The greedy promotion exists once, as PackRangesWear (ranges.go): New
// runs it over whole tables offline, the adapt subsystem's planner over
// tables or row ranges online. A zero-density item is selected by neither.
package placement

import (
	"fmt"

	"sdm/internal/embedding"
	"sdm/internal/model"
)

// Policy selects a Table 5 strategy.
type Policy int

// Policies from Table 5.
const (
	// SMOnlyWithCache maps all candidate tables to SM and relies on the
	// FM cache to keep hot rows fast ("performs well across the board").
	SMOnlyWithCache Policy = iota + 1
	// FixedFMWithCache maps the highest-value tables directly to FM
	// within the DRAM budget; the rest go to SM with cache.
	FixedFMWithCache
	// PerTableCache is SMOnlyWithCache, but tables with low temporal
	// locality bypass the cache entirely (caching them only pollutes it).
	PerTableCache
)

// String returns the policy name.
func (p Policy) String() string {
	switch p {
	case SMOnlyWithCache:
		return "SM only with Cache"
	case FixedFMWithCache:
		return "Fixed FM, SM with Cache"
	case PerTableCache:
		return "per table cache enablement"
	default:
		return fmt.Sprintf("Policy(%d)", int(p))
	}
}

// Target says where a table's rows live.
type Target int

// Placement targets.
const (
	FM Target = iota + 1 // direct DRAM placement
	SM                   // slow memory, fronted by the FM cache
)

// String returns the target name.
func (t Target) String() string {
	if t == FM {
		return "FM"
	}
	return "SM"
}

// Decision is the placement outcome for one table.
type Decision struct {
	Table        int
	Target       Target
	CacheEnabled bool
}

// Config tunes planning.
type Config struct {
	Policy Policy
	// DRAMBudget bounds bytes of direct FM placement ("All placement
	// policies adhere to a configurable DRAM budget").
	DRAMBudget int64
	// UserTablesOnly restricts SM candidates to user tables (the paper's
	// primary focus, §2.2 footnote); item tables then always stay in FM.
	UserTablesOnly bool
	// DenySM lists table indices that must not be placed in SM ("an
	// option to provide a list of tables which should not be placed in
	// SM for more elaborate offline placement").
	DenySM []int
	// MinCacheAlpha is the locality threshold below which PerTableCache
	// disables a table's cache.
	MinCacheAlpha float64
}

// Plan holds the full placement decision for a model instance.
type Plan struct {
	Decisions []Decision // indexed by table
	// FMDirectBytes is the DRAM consumed by direct placements.
	FMDirectBytes int64
	// SMBytes is the SM footprint of SM placements.
	SMBytes int64
}

// Target returns the placement of table t.
func (p *Plan) Target(t int) Target { return p.Decisions[t].Target }

// CacheEnabled reports whether table t uses the FM cache.
func (p *Plan) CacheEnabled(t int) bool { return p.Decisions[t].CacheEnabled }

// EligibleSM reports whether table idx (of the given kind) is an SM
// candidate under c's rules: not deny-listed and not excluded by
// UserTablesOnly. The adapt subsystem uses the same predicate to decide
// which tables may be swapped between FM and SM at runtime.
func (c Config) EligibleSM(idx int, kind embedding.Kind) bool {
	if c.UserTablesOnly && kind == embedding.Item {
		return false
	}
	for _, t := range c.DenySM {
		if t == idx {
			return false
		}
	}
	return true
}

// New computes a placement plan for inst. FixedFMWithCache runs the same
// greedy the online planner does (PackRangesWear, over whole-table items
// and no wear budget), so equal-density tables tie-break on table index at
// any table count, and a zero-density table (PoolingFactor 0) is never
// promoted — not even when it would fit the budget left over.
func New(inst *model.Instance, cfg Config) (*Plan, error) {
	if cfg.Policy == 0 {
		cfg.Policy = SMOnlyWithCache
	}
	if cfg.MinCacheAlpha == 0 {
		cfg.MinCacheAlpha = 0.6
	}
	for _, t := range cfg.DenySM {
		if t < 0 || t >= len(inst.Tables) {
			return nil, fmt.Errorf("placement: deny-list table %d out of range (%d tables)", t, len(inst.Tables))
		}
	}

	plan := &Plan{Decisions: make([]Decision, len(inst.Tables))}
	bwPerQuery := inst.BandwidthPerQuery()

	// Seed: everything defaults to SM unless excluded.
	for i, s := range inst.Tables {
		d := Decision{Table: i, Target: SM, CacheEnabled: true}
		if !cfg.EligibleSM(i, s.Kind) {
			d.Target = FM
		}
		plan.Decisions[i] = d
	}

	if cfg.Policy == FixedFMWithCache && cfg.DRAMBudget > 0 {
		// Greedily promote the tables with the highest bandwidth demand
		// per byte of capacity — small, hot tables first (the paper's
		// "pre-defined placement policies based on table size and
		// pooling factor"): the shared greedy over whole-table items.
		var items []RangeItem
		for i, s := range inst.Tables {
			if plan.Decisions[i].Target == SM {
				sz := s.SizeBytes()
				items = append(items, RangeItem{Table: i, Range: WholeTable, Bytes: sz, Density: bwPerQuery[i] / float64(sz)})
			}
		}
		for _, i := range PackRangesWear(items, cfg.DRAMBudget, WearBudget{}) {
			plan.Decisions[items[i].Table].Target = FM
		}
	}

	if cfg.Policy == PerTableCache {
		for i, s := range inst.Tables {
			if plan.Decisions[i].Target == SM && s.Alpha < cfg.MinCacheAlpha {
				plan.Decisions[i].CacheEnabled = false
			}
		}
	}

	for i, s := range inst.Tables {
		if plan.Decisions[i].Target == FM {
			plan.FMDirectBytes += s.SizeBytes()
		} else {
			plan.SMBytes += s.SizeBytes()
		}
	}
	return plan, nil
}
