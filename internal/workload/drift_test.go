package workload

import (
	"testing"

	"sdm/internal/model"
)

func driftInstance(t *testing.T) *model.Instance {
	t.Helper()
	cfg := model.M1()
	cfg.NumUserTables = 6
	cfg.NumItemTables = 2
	cfg.ItemBatch = 4
	cfg.TotalBytes = 1 << 21
	in, err := model.Build(cfg, 1, 5)
	if err != nil {
		t.Fatal(err)
	}
	return in
}

func traceKey(qs []Query) string {
	var b []byte
	for _, q := range qs {
		b = append(b, byte(q.UserID), byte(q.UserID>>8), byte(q.UserID>>16))
		for _, op := range q.Ops {
			for _, pool := range op.Pools {
				b = append(b, byte(len(pool)))
				for _, idx := range pool {
					b = append(b, byte(idx), byte(idx>>8))
				}
			}
		}
	}
	return string(b)
}

func TestDriftDeterministic(t *testing.T) {
	// Same seed + same drift config ⇒ bit-identical non-stationary trace.
	in := driftInstance(t)
	cfg := Config{
		Seed: 9, NumUsers: 500,
		Drift: DriftConfig{PhaseQueries: 40, HotTables: 2},
	}
	mk := func() []Query {
		g, err := NewGenerator(in, cfg)
		if err != nil {
			t.Fatal(err)
		}
		return g.GenerateTrace(200)
	}
	if traceKey(mk()) != traceKey(mk()) {
		t.Fatal("drifting traces diverged for the same seed")
	}
}

func TestZeroDriftMatchesStationary(t *testing.T) {
	// The zero DriftConfig must reproduce the legacy stream exactly.
	in := driftInstance(t)
	g1, err := NewGenerator(in, Config{Seed: 3, NumUsers: 400})
	if err != nil {
		t.Fatal(err)
	}
	g2, err := NewGenerator(in, Config{Seed: 3, NumUsers: 400, Drift: DriftConfig{}})
	if err != nil {
		t.Fatal(err)
	}
	if traceKey(g1.GenerateTrace(100)) != traceKey(g2.GenerateTrace(100)) {
		t.Fatal("zero drift config changed the stationary stream")
	}
}

func TestHotSetRotationShiftsUsersAndTables(t *testing.T) {
	in := driftInstance(t)
	g, err := NewGenerator(in, Config{
		Seed: 7, NumUsers: 1000, UserAlpha: 1.0,
		Drift: DriftConfig{PhaseQueries: 100, HotTables: 2, HotBoost: 4, ColdShrink: 0.5},
	})
	if err != nil {
		t.Fatal(err)
	}
	hot0 := g.HotUserTables()
	if len(hot0) != 2 {
		t.Fatalf("expected 2 spotlight tables, got %v", hot0)
	}
	phase0 := g.GenerateTrace(100) // consumes exactly one phase
	if g.Phase() != 1 {
		t.Fatalf("phase after 100 queries = %d, want 1", g.Phase())
	}
	hot1 := g.HotUserTables()
	if hot0[0] == hot1[0] {
		t.Fatalf("spotlight did not rotate: %v vs %v", hot0, hot1)
	}
	phase1 := g.GenerateTrace(100)

	// The spotlight tables of each phase must carry more lookups than they
	// do when cold.
	lookups := func(qs []Query, table int) int {
		var n int
		for _, q := range qs {
			for _, op := range q.Ops {
				if op.Table == table {
					n += op.TotalLookups()
				}
			}
		}
		return n
	}
	for _, tab := range hot0 {
		if l0, l1 := lookups(phase0, tab), lookups(phase1, tab); l0 <= 2*l1 {
			t.Fatalf("table %d: hot-phase lookups %d not ≫ cold-phase %d", tab, l0, l1)
		}
	}

	// The hot user cohort rotates too: the most popular users of phase 0
	// and phase 1 should barely overlap.
	top := func(qs []Query) map[int64]bool {
		counts := map[int64]int{}
		for _, q := range qs {
			counts[q.UserID]++
		}
		out := map[int64]bool{}
		for u, c := range counts {
			if c >= 3 {
				out[u] = true
			}
		}
		return out
	}
	t0, t1 := top(phase0), top(phase1)
	overlap := 0
	for u := range t0 {
		if t1[u] {
			overlap++
		}
	}
	if len(t0) == 0 || overlap*2 > len(t0) {
		t.Fatalf("hot users did not rotate: %d of %d persisted", overlap, len(t0))
	}
}

func TestItemDriftZeroValueBitIdentical(t *testing.T) {
	// User-side drift alone (HotItemTables == 0) must leave the item
	// stream bit-identical to a generator without the item extension:
	// driftItem is the identity and draws no randomness.
	in := driftInstance(t)
	mk := func(d DriftConfig) []Query {
		g, err := NewGenerator(in, Config{Seed: 13, NumUsers: 500, Drift: d})
		if err != nil {
			t.Fatal(err)
		}
		g.ForceRotation() // exercise a non-zero phase
		return g.GenerateTrace(150)
	}
	base := mk(DriftConfig{HotTables: 2, HotBoost: 4, ColdShrink: 0.5})
	same := mk(DriftConfig{HotTables: 2, HotBoost: 4, ColdShrink: 0.5, HotItemTables: 0})
	if traceKey(base) != traceKey(same) {
		t.Fatal("HotItemTables zero value changed the stream")
	}
}

func TestItemDriftRekeysItemSequences(t *testing.T) {
	// With item drift enabled, a rotation re-keys the rank→item bijection:
	// the item-table row sequences change across the phase boundary, and
	// the spotlight rotates across the item tables.
	in := driftInstance(t)
	g, err := NewGenerator(in, Config{
		Seed: 7, NumUsers: 1000,
		Drift: DriftConfig{HotItemTables: 1, HotBoost: 4, ColdShrink: 0.5},
	})
	if err != nil {
		t.Fatal(err)
	}
	nUser := in.Config.NumUserTables
	hot0 := g.HotItemTables()
	if len(hot0) != 1 || hot0[0] < nUser {
		t.Fatalf("item spotlight %v not an item table (nUser=%d)", hot0, nUser)
	}
	phase0 := g.GenerateTrace(150)
	g.ForceRotation()
	hot1 := g.HotItemTables()
	if hot0[0] == hot1[0] {
		t.Fatalf("item spotlight did not rotate: %v vs %v", hot0, hot1)
	}
	phase1 := g.GenerateTrace(150)

	// The spotlight item table carries more lookups while hot.
	lookups := func(qs []Query, table int) int {
		var n int
		for _, q := range qs {
			for _, op := range q.Ops {
				if op.Table == table {
					n += op.TotalLookups()
				}
			}
		}
		return n
	}
	if l0, l1 := lookups(phase0, hot0[0]), lookups(phase1, hot0[0]); l0 <= 2*l1 {
		t.Fatalf("item table %d: hot-phase lookups %d not ≫ cold-phase %d", hot0[0], l0, l1)
	}

	// The popular item-keyed row sequences rotate: each pool is an
	// item entity's deterministic base sequence, so popular items show up
	// as repeated identical pools. After the re-key a fresh cohort is
	// popular, so phase 0's frequent pools barely recur in phase 1.
	hotPools := func(qs []Query, table int) map[string]bool {
		counts := map[string]int{}
		for _, q := range qs {
			for _, op := range q.Ops {
				if op.Table != table {
					continue
				}
				for _, pool := range op.Pools {
					counts[traceKey([]Query{{Ops: []TableOp{{Table: table, Pools: [][]int64{pool}}}}})]++
				}
			}
		}
		out := map[string]bool{}
		for p, c := range counts {
			if c >= 3 {
				out[p] = true
			}
		}
		return out
	}
	itemTab := nUser // first item table, cold in both phases
	p0, p1 := hotPools(phase0, itemTab), hotPools(phase1, itemTab)
	overlap := 0
	for p := range p0 {
		if p1[p] {
			overlap++
		}
	}
	if len(p0) == 0 || overlap*2 > len(p0) {
		t.Fatalf("popular item sequences did not rotate: %d of %d persisted", overlap, len(p0))
	}
}

func TestForceRotation(t *testing.T) {
	in := driftInstance(t)
	g, err := NewGenerator(in, Config{Seed: 11, NumUsers: 300})
	if err != nil {
		t.Fatal(err)
	}
	g.GenerateTrace(10)
	if g.Phase() != 0 {
		t.Fatalf("driftless generator advanced phase: %d", g.Phase())
	}
	g.ForceRotation()
	if g.Phase() != 1 {
		t.Fatalf("forced rotation not reflected: %d", g.Phase())
	}
	if g.Queries() != 10 {
		t.Fatalf("query count %d, want 10", g.Queries())
	}
}

func TestDriftConfigValidation(t *testing.T) {
	in := driftInstance(t)
	bad := []DriftConfig{
		{PhaseQueries: -1},
		{HotTables: -2},
	}
	for _, d := range bad {
		if _, err := NewGenerator(in, Config{Seed: 1, Drift: d}); err == nil {
			t.Fatalf("drift config %+v should be rejected", d)
		}
	}
}
