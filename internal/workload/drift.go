// Non-stationary workload drift. The paper's characterization (§4.2) and
// Tuning API (§4.6) assume a static locality profile: placement is chosen
// once, offline. Production traffic is not static — hot sets rotate.
// DriftConfig layers hot-set rotation on the Zipf generator while keeping
// its determinism contract: the trace is a pure function of (seed, config,
// call order), so every simulation replaying the same stream observes
// bit-identical queries. Within a phase the stream is stationary.

package workload

import (
	"fmt"
	"math"

	"sdm/internal/xrand"
)

// DriftConfig makes a Generator non-stationary. The zero value disables
// all drift and reproduces the stationary generator exactly.
type DriftConfig struct {
	// PhaseQueries is the hot-set rotation period: every PhaseQueries
	// generated queries the drift phase advances by one, re-keying the
	// rank→user bijection (yesterday's hot users go cold, a fresh cohort
	// becomes hot — and with them every entity-keyed row sequence) and
	// rotating which user tables carry the traffic spotlight. 0 disables
	// periodic rotation; ForceRotation can still advance the phase.
	PhaseQueries int
	// HotTables is the number of user tables boosted per phase (the
	// "spotlight" set, rotating with the phase). 0 disables table drift.
	HotTables int
	// HotItemTables extends rotation to the item side: each phase re-keys
	// the rank→item bijection (yesterday's popular items go cold, a fresh
	// catalog cohort becomes hot — and with them every item-keyed row
	// sequence) and rotates an item-table spotlight of this size, boosted
	// and shrunk by the same HotBoost/ColdShrink as the user side. 0
	// disables item drift entirely — the item stream stays bit-identical
	// to the stationary generator.
	HotItemTables int
	// HotBoost multiplies the pooling factor of spotlight tables
	// (default 4 when HotTables > 0).
	HotBoost float64
	// ColdShrink multiplies the pooling factor of the remaining user
	// tables (default 0.5 when HotTables > 0), so rotation shifts
	// bandwidth between tables, not just within them.
	ColdShrink float64
}

// validate rejects nonsensical drift settings and fills defaults.
func (d DriftConfig) validate() (DriftConfig, error) {
	if d.PhaseQueries < 0 || d.HotTables < 0 || d.HotItemTables < 0 {
		return d, fmt.Errorf("workload: negative drift parameter: %+v", d)
	}
	// Any NaN or ±Inf term makes the sum non-finite.
	if f := d.HotBoost + d.ColdShrink; math.IsNaN(f) || math.IsInf(f, 0) ||
		d.HotBoost < 0 || d.ColdShrink < 0 {
		return d, fmt.Errorf("workload: drift multipliers non-finite or out of range: %+v", d)
	}
	if d.HotTables > 0 || d.HotItemTables > 0 {
		if d.HotBoost == 0 {
			d.HotBoost = 4
		}
		if d.ColdShrink == 0 {
			d.ColdShrink = 0.5
		}
	}
	return d, nil
}

// Phase returns the current drift phase: forced rotations plus the
// periodic phase from the query count.
func (g *Generator) Phase() int {
	p := g.forcedPhases
	if g.cfg.Drift.PhaseQueries > 0 {
		p += g.queries / g.cfg.Drift.PhaseQueries
	}
	return p
}

// ForceRotation advances the drift phase by one immediately — the
// generator-side half of a cluster drift drill (Fleet.ScheduleDrift): the
// hot user cohort, the spotlight tables and every entity-keyed row
// sequence rotate between one query and the next.
func (g *Generator) ForceRotation() { g.forcedPhases++ }

// driftUser maps a freshly drawn Zipf rank through the current phase's
// user bijection. Phase 0 is the identity, so a drift-free generator (or
// one before its first rotation) reproduces the stationary stream
// bit-for-bit.
func (g *Generator) driftUser(rank int64) int64 {
	phase := g.Phase()
	if phase == 0 {
		return rank
	}
	if g.userMap == nil || g.userMapPhase != phase {
		g.userMap = xrand.NewPermuter(g.cfg.NumUsers, g.cfg.Seed^0xd21f7^uint64(phase)*0x9e3779b97f4a7c15)
		g.userMapPhase = phase
	}
	return g.userMap.Map(rank)
}

// driftItem maps a freshly drawn item Zipf rank through the current
// phase's item bijection. Disabled (HotItemTables == 0) or in phase 0 it
// is the identity, so the item stream reproduces the stationary generator
// bit-for-bit; enabled, every rotation re-keys which catalog items are
// popular, exactly as driftUser re-keys the user cohort. It draws no
// randomness of its own, so enabling it never perturbs the shared RNG
// stream.
func (g *Generator) driftItem(rank int64) int64 {
	if g.cfg.Drift.HotItemTables <= 0 {
		return rank
	}
	phase := g.Phase()
	if phase == 0 {
		return rank
	}
	if g.itemMap == nil || g.itemMapPhase != phase {
		g.itemMap = xrand.NewPermuter(numItems, g.cfg.Seed^0x17e3a^uint64(phase)*0x9e3779b97f4a7c15)
		g.itemMapPhase = phase
	}
	return g.itemMap.Map(rank)
}

// tableBoost returns the pooling-factor multiplier of table t in the
// current phase: HotBoost for the rotating spotlight set (user tables
// under HotTables, item tables under HotItemTables), ColdShrink for the
// rest of the drifting side, 1 when that side's table drift is off.
func (g *Generator) tableBoost(t int) float64 {
	d := g.cfg.Drift
	nUser := g.inst.Config.NumUserTables
	hot, n := d.HotTables, nUser
	if t >= nUser {
		hot, n, t = d.HotItemTables, len(g.inst.Tables)-nUser, t-nUser
	}
	start, k := g.spotlight(hot, n)
	if k == 0 {
		return 1
	}
	if (t-start+n)%n < k {
		return d.HotBoost
	}
	return d.ColdShrink
}

// spotlight returns the current phase's spotlight window over the n
// tables of one side: k = min(hot, n) tables, consecutive mod n from
// start. k is 0 when that side's table drift is off (hot ≤ 0 or n = 0).
func (g *Generator) spotlight(hot, n int) (start, k int) {
	if hot <= 0 || n == 0 {
		return 0, 0
	}
	k = min(hot, n)
	return g.Phase() * k % n, k
}

// HotUserTables returns the spotlight user tables of the current phase
// (nil when table drift is disabled) — the set an adaptive placement
// controller should discover from telemetry alone.
func (g *Generator) HotUserTables() []int {
	n := g.inst.Config.NumUserTables
	start, k := g.spotlight(g.cfg.Drift.HotTables, n)
	if k == 0 {
		return nil
	}
	out := make([]int, k)
	for i := range out {
		out[i] = (start + i) % n
	}
	return out
}
