package core

import (
	"testing"

	"sdm/internal/embedding"
	"sdm/internal/model"
	"sdm/internal/placement"
	"sdm/internal/simclock"
	"sdm/internal/uring"
	"sdm/internal/workload"
)

func adaptiveFixture(t *testing.T, cfg Config) (*Store, *model.Instance, []*embedding.Table) {
	t.Helper()
	mc := model.M1()
	mc.NumUserTables = 4
	mc.NumItemTables = 2
	mc.ItemBatch = 4
	mc.TotalBytes = 1 << 20
	inst, err := model.Build(mc, 1, 21)
	if err != nil {
		t.Fatal(err)
	}
	tables, err := inst.Materialize()
	if err != nil {
		t.Fatal(err)
	}
	s, err := Open(inst, tables, cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	return s, inst, tables
}

func TestReserveSMRejectsTransforms(t *testing.T) {
	mc := model.M1()
	mc.NumUserTables = 2
	mc.NumItemTables = 1
	mc.TotalBytes = 1 << 18
	inst, err := model.Build(mc, 1, 3)
	if err != nil {
		t.Fatal(err)
	}
	tables, err := inst.Materialize()
	if err != nil {
		t.Fatal(err)
	}
	for _, cfg := range []Config{
		{ReserveSM: true, Prune: true},
		{ReserveSM: true, DequantAtLoad: true},
	} {
		cfg.Seed = 1
		if _, err := Open(inst, tables, cfg, nil); err == nil {
			t.Fatalf("ReserveSM with %+v should be rejected", cfg)
		}
	}
}

func TestMigrationRoundTripMatchesOracle(t *testing.T) {
	// Promote an SM table to FM under chunked migration, verify pooled
	// outputs match the original flat table, then demote it and verify the
	// SM path still serves identical data.
	cfg := Config{
		Seed: 5, ReserveSM: true, Ring: uring.Config{SGL: true},
		CacheBytes: 1 << 16,
		Placement:  placement.Config{Policy: placement.SMOnlyWithCache, UserTablesOnly: true},
	}
	s, inst, tables := adaptiveFixture(t, cfg)

	const table = 1
	if !s.tables[table].swappable {
		t.Fatal("user table should be swappable under ReserveSM")
	}
	if s.TableStats(nil)[table].Target != placement.SM {
		t.Fatalf("table %d should start SM-resident", table)
	}

	now := s.LoadDone()
	m, err := s.BeginPromote(table, 8<<10)
	if err != nil {
		t.Fatal(err)
	}
	steps := 0
	for !m.Finished() {
		n, done, err := m.Step(now)
		if err != nil {
			t.Fatal(err)
		}
		if n <= 0 {
			t.Fatal("chunk issued no bytes")
		}
		if done < now {
			t.Fatalf("chunk completion %v before issue %v", done, now)
		}
		steps++
	}
	if steps < 2 {
		t.Fatalf("migration should be chunked, got %d steps", steps)
	}
	if m.BytesMoved() != inst.Tables[table].SizeBytes() {
		t.Fatalf("moved %d bytes, want %d", m.BytesMoved(), inst.Tables[table].SizeBytes())
	}
	if err := m.Commit(); err != nil {
		t.Fatal(err)
	}
	if s.TableStats(nil)[table].Target != placement.FM {
		t.Fatal("promotion did not flip the target")
	}
	preStats := s.Stats()
	if preStats.Migrations != 1 || preStats.MigratedSMToFMBytes == 0 {
		t.Fatalf("migration counters not recorded: %+v", preStats)
	}

	// Oracle check: pooled output from the promoted FM copy equals the
	// original table.
	gen, err := workload.NewGenerator(inst, workload.Config{Seed: 7, NumUsers: 200})
	if err != nil {
		t.Fatal(err)
	}
	check := func() {
		t.Helper()
		for i := 0; i < 20; i++ {
			q := gen.Next()
			outs := s.AllocOutputs(q)
			if _, err := s.PoolQuery(now+simclock.Time(i)*1e6, q, outs); err != nil {
				t.Fatal(err)
			}
			for oi, op := range q.Ops {
				if op.Table != table {
					continue
				}
				want := make([]float32, inst.Tables[table].Dim)
				for b, pool := range op.Pools {
					if err := tables[table].Pool(want, pool); err != nil {
						t.Fatal(err)
					}
					for e := range want {
						if want[e] != outs[oi][b][e] {
							t.Fatalf("element %d diverged after migration: %g vs %g", e, outs[oi][b][e], want[e])
						}
					}
				}
			}
		}
	}
	check()

	// Demote back to SM and re-verify through the device path.
	now = now + simclock.Time(1e9)
	d, err := s.BeginDemote(table, 8<<10)
	if err != nil {
		t.Fatal(err)
	}
	for !d.Finished() {
		if _, _, err := d.Step(now); err != nil {
			t.Fatal(err)
		}
	}
	now = d.Done() + 1
	if err := d.Commit(); err != nil {
		t.Fatal(err)
	}
	if s.TableStats(nil)[table].Target != placement.SM {
		t.Fatal("demotion did not flip the target")
	}
	check()
	st := s.Stats()
	if st.Migrations != 2 || st.MigratedFMToSMBytes == 0 {
		t.Fatalf("demotion counters not recorded: %+v", st)
	}
}

func TestMigrationValidation(t *testing.T) {
	cfg := Config{
		Seed: 9, ReserveSM: true, Ring: uring.Config{SGL: true},
		Placement: placement.Config{Policy: placement.SMOnlyWithCache, UserTablesOnly: true},
	}
	s, inst, _ := adaptiveFixture(t, cfg)
	itemTable := inst.Config.NumUserTables // first item table: FM, not swappable
	if s.tables[itemTable].swappable {
		t.Fatal("item table should not be swappable under UserTablesOnly")
	}
	if _, err := s.BeginPromote(itemTable, 0); err == nil {
		t.Fatal("promoting a non-swappable table should fail")
	}
	if _, err := s.BeginDemote(0, 0); err == nil {
		t.Fatal("demoting an SM-resident table should fail")
	}
	if _, err := s.BeginPromote(99, 0); err == nil {
		t.Fatal("out-of-range table should fail")
	}
	m, err := s.BeginPromote(0, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Commit(); err == nil {
		t.Fatal("commit before the final chunk should fail")
	}
	// A second promote of the same still-SM table is legal to begin, but
	// after the first commits, beginning another must fail.
	for !m.Finished() {
		if _, _, err := m.Step(s.LoadDone()); err != nil {
			t.Fatal(err)
		}
	}
	if err := m.Commit(); err != nil {
		t.Fatal(err)
	}
	if _, err := s.BeginPromote(0, 0); err == nil {
		t.Fatal("promoting an FM-resident table should fail")
	}
}

func TestMigrationPreservesOnlineUpdates(t *testing.T) {
	// §A.3 online updates land cache-first as dirty entries; a promotion
	// must carry them into the FM copy (not resurrect the stale SM bytes),
	// and updates applied while FM-resident must survive a later demotion
	// without a stale cache shadow.
	cfg := Config{
		Seed: 15, ReserveSM: true, Ring: uring.Config{SGL: true},
		CacheBytes: 1 << 16,
		Placement:  placement.Config{Policy: placement.SMOnlyWithCache, UserTablesOnly: true},
	}
	s, inst, tables := adaptiveFixture(t, cfg)
	const table = 0
	spec := inst.Tables[table]
	// Use another row's stored bytes as the update payload, so the flat
	// oracle for "row 3 now equals row 7" is just pooling row 7.
	donor, err := tables[table].Row(7)
	if err != nil {
		t.Fatal(err)
	}
	now := s.LoadDone()
	if _, err := s.UpdateRow(now, table, 3, donor, UpdateOnline); err != nil {
		t.Fatal(err)
	}

	pool := func(when simclock.Time, row int64) []float32 {
		t.Helper()
		out := [][]float32{make([]float32, spec.Dim)}
		op := workload.TableOp{Table: table, Pools: [][]int64{{row}}}
		if _, err := s.PoolOps(when, []workload.TableOp{op}, [][][]float32{out}); err != nil {
			t.Fatal(err)
		}
		return out[0]
	}
	oracle := make([]float32, spec.Dim)
	if err := tables[table].Pool(oracle, []int64{7}); err != nil {
		t.Fatal(err)
	}
	equal := func(got []float32, stage string) {
		t.Helper()
		for i := range oracle {
			if got[i] != oracle[i] {
				t.Fatalf("%s: element %d = %g, want %g (update lost)", stage, i, got[i], oracle[i])
			}
		}
	}
	equal(pool(now, 3), "dirty cache entry")

	// Promote with the dirty entry outstanding.
	m, err := s.BeginPromote(table, 8<<10)
	if err != nil {
		t.Fatal(err)
	}
	for !m.Finished() {
		if _, _, err := m.Step(now); err != nil {
			t.Fatal(err)
		}
	}
	if err := m.Commit(); err != nil {
		t.Fatal(err)
	}
	now = m.Done() + 1
	equal(pool(now, 3), "after promotion")

	// Update in place while FM-resident, then demote.
	if _, err := s.UpdateRow(now, table, 5, donor, UpdateOffline); err != nil {
		t.Fatal(err)
	}
	d, err := s.BeginDemote(table, 8<<10)
	if err != nil {
		t.Fatal(err)
	}
	for !d.Finished() {
		if _, _, err := d.Step(now); err != nil {
			t.Fatal(err)
		}
	}
	if err := d.Commit(); err != nil {
		t.Fatal(err)
	}
	now = d.Done() + 1
	equal(pool(now, 3), "after demotion, cache-first row")
	equal(pool(now, 5), "after demotion, FM-updated row")
}

func TestTableStatsPerTableCounters(t *testing.T) {
	cfg := Config{
		Seed: 11, ReserveSM: true, Ring: uring.Config{SGL: true},
		CacheBytes: 1 << 16,
		Placement:  placement.Config{Policy: placement.SMOnlyWithCache, UserTablesOnly: true},
	}
	s, inst, _ := adaptiveFixture(t, cfg)
	gen, err := workload.NewGenerator(inst, workload.Config{Seed: 13, NumUsers: 100})
	if err != nil {
		t.Fatal(err)
	}
	now := s.LoadDone()
	for i := 0; i < 30; i++ {
		q := gen.Next()
		outs := s.AllocOutputs(q)
		if _, err := s.PoolQuery(now+simclock.Time(i)*1e6, q, outs); err != nil {
			t.Fatal(err)
		}
	}
	ts := s.TableStats(nil)
	if len(ts) != len(inst.Tables) {
		t.Fatalf("%d table stats for %d tables", len(ts), len(inst.Tables))
	}
	var sumLookups, sumSM uint64
	for i, st := range ts {
		if st.Table != i {
			t.Fatalf("stat %d reports table %d", i, st.Table)
		}
		sumLookups += st.Lookups
		sumSM += st.SMReads
		if i < inst.Config.NumUserTables {
			if !st.Swappable || st.Lookups == 0 {
				t.Fatalf("user table %d: %+v", i, st)
			}
			if st.SMReads > st.Lookups {
				t.Fatalf("user table %d: %d SM reads of %d lookups", i, st.SMReads, st.Lookups)
			}
		} else if st.Lookups != 0 {
			// Item ops never reach the store in the host path; via
			// PoolQuery they do — but they are FM-direct, so SMReads
			// must be zero.
			if st.SMReads != 0 {
				t.Fatalf("item table %d read SM: %+v", i, st)
			}
		}
	}
	agg := s.Stats()
	if sumLookups != agg.Lookups || sumSM != agg.SMReads {
		t.Fatalf("per-table counters (%d, %d) disagree with aggregates (%d, %d)",
			sumLookups, sumSM, agg.Lookups, agg.SMReads)
	}
}
