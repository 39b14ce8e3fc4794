// Non-stationary workload drift. The paper's characterization (§4.2) and
// Tuning API (§4.6) assume a static locality profile: placement is chosen
// once, offline. Production traffic is not static — hot sets rotate, the
// user mix shifts over the day, and flash crowds pull cold entities into
// the head of the distribution. DriftConfig layers those three effects on
// the Zipf generator while keeping its determinism contract: the trace is
// a pure function of (seed, config, call order), so every simulation
// replaying the same stream observes bit-identical queries.

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
	// DiurnalQueries is the period (in queries) of a sinusoidal user-mix
	// shift: the user Zipf skew oscillates ±DiurnalAmp around its base, so
	// off-peak traffic is flatter (more unique users, less locality) than
	// peak. 0 disables.
	DiurnalQueries int
	// DiurnalAmp is the skew oscillation amplitude.
	DiurnalAmp float64
	// FlashEvery starts a flash-crowd event every FlashEvery queries:
	// for FlashLen queries, each query is redirected with probability
	// FlashFrac to one of FlashUsers previously unseen users (a cold
	// cohort suddenly dominating). 0 disables.
	FlashEvery int
	// FlashLen is the event length in queries (default FlashEvery/10).
	FlashLen int
	// FlashFrac is the per-query redirection probability (default 0.5).
	FlashFrac float64
	// FlashUsers is the flash cohort size (default 64).
	FlashUsers int64
}

// validate rejects nonsensical drift settings and fills defaults.
func (d DriftConfig) validate() (DriftConfig, error) {
	if d.PhaseQueries < 0 || d.HotTables < 0 || d.HotItemTables < 0 || d.DiurnalQueries < 0 ||
		d.FlashEvery < 0 || d.FlashLen < 0 || d.FlashUsers < 0 {
		return d, fmt.Errorf("workload: negative drift parameter: %+v", d)
	}
	// Any NaN or ±Inf term makes the sum non-finite.
	if f := d.HotBoost + d.ColdShrink + d.FlashFrac + d.DiurnalAmp; math.IsNaN(f) || math.IsInf(f, 0) ||
		d.HotBoost < 0 || d.ColdShrink < 0 || d.FlashFrac < 0 || d.FlashFrac > 1 {
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
	if d.FlashEvery > 0 {
		if d.FlashLen == 0 {
			d.FlashLen = d.FlashEvery / 10
			if d.FlashLen < 1 {
				d.FlashLen = 1
			}
		}
		if d.FlashLen > d.FlashEvery {
			return d, fmt.Errorf("workload: flash length %d exceeds period %d", d.FlashLen, d.FlashEvery)
		}
		if d.FlashFrac == 0 {
			d.FlashFrac = 0.5
		}
		if d.FlashUsers == 0 {
			d.FlashUsers = 64
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

// Queries returns how many queries the generator has produced.
func (g *Generator) Queries() int { return g.queries }

// ForceRotation advances the drift phase by one immediately — the
// generator-side half of a cluster drift drill (Fleet.ScheduleDrift): the
// hot user cohort, the spotlight tables and every entity-keyed row
// sequence rotate between one query and the next.
func (g *Generator) ForceRotation() { g.forcedPhases++ }

// driftUser maps a freshly drawn Zipf rank through the current phase's
// user bijection and applies any active flash crowd. Phase 0 is the
// identity, so a drift-free generator (or one before its first rotation)
// reproduces the stationary stream bit-for-bit.
func (g *Generator) driftUser(rank int64) int64 {
	d := g.cfg.Drift
	user := rank
	if phase := g.Phase(); phase > 0 {
		if g.userMap == nil || g.userMapPhase != phase {
			g.userMap = xrand.NewPermuter(g.cfg.NumUsers, g.cfg.Seed^0xd21f7^uint64(phase)*0x9e3779b97f4a7c15)
			g.userMapPhase = phase
		}
		user = g.userMap.Map(rank)
	}
	if d.FlashEvery > 0 && g.queries%d.FlashEvery < d.FlashLen {
		if g.rng.Float64() < d.FlashFrac {
			event := int64(g.queries / d.FlashEvery)
			user = g.cfg.NumUsers + event*d.FlashUsers + g.rng.Int63n(d.FlashUsers)
		}
	}
	return user
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
		g.itemMap = xrand.NewPermuter(g.cfg.NumItems, g.cfg.Seed^0x17e3a^uint64(phase)*0x9e3779b97f4a7c15)
		g.itemMapPhase = phase
	}
	return g.itemMap.Map(rank)
}

// diurnalAlpha returns the user skew at the current point of the diurnal
// cycle (the base skew when the diurnal shift is disabled).
func (g *Generator) diurnalAlpha() float64 {
	d := g.cfg.Drift
	if d.DiurnalQueries <= 0 || d.DiurnalAmp == 0 {
		return g.cfg.UserAlpha
	}
	a := g.cfg.UserAlpha + d.DiurnalAmp*math.Sin(2*math.Pi*float64(g.queries)/float64(d.DiurnalQueries))
	if a < 0.05 {
		a = 0.05
	}
	return a
}

// tableBoost returns the pooling-factor multiplier of table t in the
// current phase: HotBoost for the rotating spotlight set (user tables
// under HotTables, item tables under HotItemTables), ColdShrink for the
// rest of the drifting side, 1 when that side's table drift is off.
func (g *Generator) tableBoost(t int) float64 {
	d := g.cfg.Drift
	nUser := g.inst.Config.NumUserTables
	if t >= nUser {
		nItem := len(g.inst.Tables) - nUser
		if d.HotItemTables <= 0 || nItem == 0 {
			return 1
		}
		k := d.HotItemTables
		if k > nItem {
			k = nItem
		}
		start := (g.Phase() * k) % nItem
		if (t-nUser-start+nItem)%nItem < k {
			return d.HotBoost
		}
		return d.ColdShrink
	}
	if d.HotTables <= 0 || nUser == 0 {
		return 1
	}
	k := d.HotTables
	if k > nUser {
		k = nUser
	}
	start := (g.Phase() * k) % nUser
	if (t-start+nUser)%nUser < k {
		return d.HotBoost
	}
	return d.ColdShrink
}

// HotUserTables returns the spotlight user tables of the current phase
// (nil when table drift is disabled) — the set an adaptive placement
// controller should discover from telemetry alone.
func (g *Generator) HotUserTables() []int {
	d := g.cfg.Drift
	nUser := g.inst.Config.NumUserTables
	if d.HotTables <= 0 || nUser == 0 {
		return nil
	}
	k := d.HotTables
	if k > nUser {
		k = nUser
	}
	start := (g.Phase() * k) % nUser
	out := make([]int, 0, k)
	for i := 0; i < k; i++ {
		out = append(out, (start+i)%nUser)
	}
	return out
}

// HotItemTables returns the spotlight item tables of the current phase
// (nil when item drift is disabled), as absolute table indices.
func (g *Generator) HotItemTables() []int {
	d := g.cfg.Drift
	nUser := g.inst.Config.NumUserTables
	nItem := len(g.inst.Tables) - nUser
	if d.HotItemTables <= 0 || nItem == 0 {
		return nil
	}
	k := d.HotItemTables
	if k > nItem {
		k = nItem
	}
	start := (g.Phase() * k) % nItem
	out := make([]int, 0, k)
	for i := 0; i < k; i++ {
		out = append(out, nUser+(start+i)%nItem)
	}
	return out
}
