package core

import (
	"math"
	"testing"

	"sdm/internal/embedding"
	"sdm/internal/model"
	"sdm/internal/placement"
	"sdm/internal/quant"
	"sdm/internal/simclock"
	"sdm/internal/uring"
	"sdm/internal/workload"
)

// rangeFixture opens a ReserveSM store whose swappable tables split into
// several row ranges.
func rangeFixture(t *testing.T, parallelism int) (*Store, *workloadOracle) {
	t.Helper()
	cfg := Config{
		Seed: 5, ReserveSM: true, Ring: uring.Config{SGL: true},
		CacheBytes: 1 << 16, MigrationRangeBytes: 8 << 10,
		Parallelism: parallelism,
		Placement:   placement.Config{Policy: placement.SMOnlyWithCache, UserTablesOnly: true},
	}
	s, inst, tables := adaptiveFixture(t, cfg)
	gen, err := workload.NewGenerator(inst, workload.Config{Seed: 7, NumUsers: 200})
	if err != nil {
		t.Fatal(err)
	}
	return s, &workloadOracle{t: t, s: s, inst: inst, tables: tables, gen: gen}
}

// workloadOracle replays generated queries through the store and checks
// every pooled output of the watched table against the original flat table.
type workloadOracle struct {
	t      *testing.T
	s      *Store
	inst   *model.Instance
	tables []*embedding.Table
	gen    *workload.Generator
}

func (o *workloadOracle) check(now simclock.Time, table int, queries int) {
	o.t.Helper()
	for i := 0; i < queries; i++ {
		q := o.gen.Next()
		outs := o.s.AllocOutputs(q)
		if _, err := o.s.PoolQuery(now+simclock.Time(i)*1e6, q, outs); err != nil {
			o.t.Fatal(err)
		}
		for oi, op := range q.Ops {
			if op.Table != table {
				continue
			}
			want := make([]float32, o.inst.Tables[table].Dim)
			for b, pool := range op.Pools {
				if err := o.tables[table].Pool(want, pool); err != nil {
					o.t.Fatal(err)
				}
				for e := range want {
					if want[e] != outs[oi][b][e] {
						o.t.Fatalf("element %d diverged: %g vs %g", e, outs[oi][b][e], want[e])
					}
				}
			}
		}
	}
}

// driveRange runs a migration to completion at now and commits it.
func driveRange(t *testing.T, m *Migration, now simclock.Time) simclock.Time {
	t.Helper()
	for !m.Finished() {
		if _, _, err := m.Step(now); err != nil {
			t.Fatal(err)
		}
	}
	if err := m.Commit(); err != nil {
		t.Fatal(err)
	}
	return m.Done() + 1
}

// TestStorePoolsLikeRowByRow holds the store path's batched pooling — rows
// from an FM-resident range, cache hits and SM reads gathered into one
// quant.Pooler, the copied ones staged in rowBuf slots — bit for bit to one
// quant.AccumulateRow per looked-up row of the original table, on pools
// longer than a Pooler batch.
func TestStorePoolsLikeRowByRow(t *testing.T) {
	s, o := rangeFixture(t, 1)
	const table = 1
	m, err := s.BeginPromoteRange(table, 0, s.TableStats(nil)[table].RangeRows, 4<<10)
	if err != nil {
		t.Fatal(err)
	}
	now := driveRange(t, m, s.LoadDone())
	before, long := s.Stats(), 0
	for i := 0; i < 40; i++ {
		q := o.gen.Next()
		outs := s.AllocOutputs(q)
		if _, err := s.PoolQuery(now+simclock.Time(i)*1e6, q, outs); err != nil {
			t.Fatal(err)
		}
		for oi, op := range q.Ops {
			tb := o.tables[op.Table]
			for b, pool := range op.Pools {
				want := make([]float32, tb.Spec().Dim)
				for _, idx := range pool {
					row, err := tb.Row(idx)
					if err != nil {
						t.Fatal(err)
					}
					if err := quant.AccumulateRow(want, row, tb.Spec().QType); err != nil {
						t.Fatal(err)
					}
				}
				if len(pool) > quant.PoolerRows {
					long++
				}
				for e := range want {
					if math.Float32bits(want[e]) != math.Float32bits(outs[oi][b][e]) {
						t.Fatalf("query %d table %d pool %d (%d rows) element %d: %g, row by row %g",
							i, op.Table, b, len(pool), e, outs[oi][b][e], want[e])
					}
				}
			}
		}
	}
	d := s.Stats()
	rangeFM, sm := d.RangeFMReads-before.RangeFMReads, d.SMReads-before.SMReads
	hits := d.Lookups - before.Lookups - sm - (d.FMDirectReads - before.FMDirectReads)
	if long == 0 || rangeFM == 0 || sm == 0 || hits == 0 {
		t.Fatalf("want long pools, range-FM rows, SM reads and cache hits; got %d, %d, %d, %d", long, rangeFM, sm, hits)
	}
}

func TestRangeMigrationRoundTripMatchesOracle(t *testing.T) {
	s, oracle := rangeFixture(t, 1)
	const table = 1
	rr := s.TableStats(nil)[table].RangeRows
	if rr <= 0 {
		t.Fatal("swappable table should be range-provisioned")
	}
	rs := s.RangeStats(nil)
	perTable := 0
	for _, r := range rs {
		if r.Table == table {
			perTable++
		}
	}
	if perTable < 3 {
		t.Fatalf("fixture should split table %d into several ranges, got %d", table, perTable)
	}

	// Promote the two head ranges.
	now := s.LoadDone()
	m, err := s.BeginPromoteRange(table, 0, 2*rr, 4<<10)
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
		t.Fatalf("range migration should be chunked, got %d steps", steps)
	}
	wantBytes := 2 * rr * int64(s.tables[table].rowBytes)
	if m.BytesMoved() != wantBytes {
		t.Fatalf("moved %d bytes, want %d (2 ranges)", m.BytesMoved(), wantBytes)
	}
	if err := m.Commit(); err != nil {
		t.Fatal(err)
	}
	if s.TableStats(nil)[table].Target != placement.SM {
		t.Fatal("range promotion must not flip the whole-table target")
	}
	if got := s.FMResidentBytes(table); got != wantBytes {
		t.Fatalf("FM-resident bytes %d, want %d", got, wantBytes)
	}
	st := s.Stats()
	if st.RangeMigrations != 1 || st.MigratedSMToFMBytes == 0 {
		t.Fatalf("range migration counters not recorded: %+v", st)
	}

	// Oracle: pooled outputs over the mixed-residency table match the
	// flat table, and head-range rows are served from FM.
	now = m.Done() + 1
	before := s.Stats()
	oracle.check(now, table, 25)
	after := s.Stats()
	if after.RangeFMReads == before.RangeFMReads {
		t.Fatal("no lookups served from the promoted ranges")
	}
	if after.FMDirectReads-before.FMDirectReads < after.RangeFMReads-before.RangeFMReads {
		t.Fatal("range-served reads must count as FM-direct")
	}

	// Demote one of the two ranges, keep the other; then demote the rest.
	now += simclock.Time(1e9)
	d, err := s.BeginDemoteRange(table, rr, 2*rr, 4<<10)
	if err != nil {
		t.Fatal(err)
	}
	now = driveRange(t, d, now)
	if got := s.FMResidentBytes(table); got != wantBytes/2 {
		t.Fatalf("after partial demotion FM-resident bytes %d, want %d", got, wantBytes/2)
	}
	oracle.check(now, table, 25)

	d2, err := s.BeginDemoteRange(table, 0, rr, 4<<10)
	if err != nil {
		t.Fatal(err)
	}
	now = driveRange(t, d2, now)
	if got := s.FMResidentBytes(table); got != 0 {
		t.Fatalf("after full demotion FM-resident bytes %d, want 0", got)
	}
	oracle.check(now, table, 25)
	fin := s.Stats()
	if fin.RangeMigrations != 3 || fin.MigratedFMToSMBytes == 0 {
		t.Fatalf("demotion counters not recorded: %+v", fin)
	}
}

func TestRangeMigrationValidation(t *testing.T) {
	s, _ := rangeFixture(t, 1)
	const table = 0
	rr := s.TableStats(nil)[table].RangeRows
	rows := s.tables[table].rows
	if _, err := s.BeginPromoteRange(table, 1, rr, 0); err == nil {
		t.Fatal("misaligned window should be rejected")
	}
	if _, err := s.BeginPromoteRange(table, 0, 0, 0); err == nil {
		t.Fatal("empty window should be rejected")
	}
	if _, err := s.BeginPromoteRange(table, 0, rows+rr, 0); err == nil {
		t.Fatal("out-of-bounds window should be rejected")
	}
	if _, err := s.BeginDemoteRange(table, 0, rr, 0); err == nil {
		t.Fatal("demoting a non-resident range should be rejected")
	}

	now := s.LoadDone()
	m, err := s.BeginPromoteRange(table, 0, rr, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Commit(); err == nil {
		t.Fatal("commit before the final chunk should fail")
	}
	now = driveRange(t, m, now)
	if _, err := s.BeginPromoteRange(table, 0, rr, 0); err == nil {
		t.Fatal("promoting an already-resident range should be rejected")
	}
	if _, err := s.BeginPromote(table, 0); err == nil {
		t.Fatal("whole-table promotion with resident ranges should be rejected")
	}
	// The tail window (unaligned end == rows) is legal.
	lastLo := ((rows - 1) / rr) * rr
	m2, err := s.BeginPromoteRange(table, lastLo, rows, 0)
	if err != nil {
		t.Fatal(err)
	}
	driveRange(t, m2, now)

	// A non-swappable item table has no ranges.
	item := len(s.tables) - 1
	if s.TableStats(nil)[item].RangeRows != 0 {
		t.Fatal("item table should not be range-provisioned")
	}
	if _, err := s.BeginPromoteRange(item, 0, 1, 0); err == nil {
		t.Fatal("range-promoting a non-swappable table should fail")
	}
}

func TestMigrationAbort(t *testing.T) {
	s, oracle := rangeFixture(t, 1)
	const table = 2
	rr := s.TableStats(nil)[table].RangeRows
	now := s.LoadDone()
	m, err := s.BeginPromoteRange(table, 0, 2*rr, 4<<10)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := m.Step(now); err != nil {
		t.Fatal(err)
	}
	m.Abort()
	if !m.Aborted() {
		t.Fatal("Aborted not reported")
	}
	if _, _, err := m.Step(now); err == nil {
		t.Fatal("Step after Abort should fail")
	}
	if err := m.Commit(); err == nil {
		t.Fatal("Commit after Abort should fail")
	}
	if s.FMResidentBytes(table) != 0 {
		t.Fatal("aborted promotion must not install ranges")
	}
	if s.Stats().Migrations != 0 {
		t.Fatal("aborted migration must not count as committed")
	}
	// The table is untouched: a fresh migration over the same window
	// starts from scratch and round-trips correctly.
	m2, err := s.BeginPromoteRange(table, 0, 2*rr, 4<<10)
	if err != nil {
		t.Fatal(err)
	}
	now = driveRange(t, m2, now)
	oracle.check(now, table, 20)

	// Abort mid-demotion: the partially rewritten SM window stays
	// unreachable (rows remain FM-resident) and serving stays correct.
	d, err := s.BeginDemoteRange(table, 0, rr, 4<<10)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := d.Step(now); err != nil {
		t.Fatal(err)
	}
	d.Abort()
	if s.FMResidentBytes(table) != 2*rr*int64(s.tables[table].rowBytes) {
		t.Fatal("aborted demotion must keep the ranges FM-resident")
	}
	oracle.check(now, table, 20)
	// The next demotion rewrites the window from its first row.
	d2, err := s.BeginDemoteRange(table, 0, 2*rr, 4<<10)
	if err != nil {
		t.Fatal(err)
	}
	now = driveRange(t, d2, now)
	oracle.check(now, table, 20)
}

func TestRangeMigrationPreservesOnlineUpdates(t *testing.T) {
	// §A.3 online updates land cache-first as dirty entries. A range
	// promotion must fold the in-window ones into the FM copy while
	// out-of-window entries stay dirty (still cache-first); updates
	// applied to an FM-resident range must survive its demotion.
	s, _ := rangeFixture(t, 1)
	const table = 0
	st := s.tables[table]
	rr := st.rangeRows
	spec := st.spec

	donor := make([]byte, st.rowBytes)
	flat := func(row int64) []byte {
		dev, off := s.smLocation(st, row)
		buf := make([]byte, st.rowBytes)
		if err := s.devices[dev].PeekInto(buf, off); err != nil {
			t.Fatal(err)
		}
		return buf
	}
	copy(donor, flat(7))

	now := s.LoadDone()
	inRow, outRow := int64(3), 2*rr+1 // rows inside and outside the window
	if outRow >= st.rows {
		t.Fatalf("fixture table too small: %d rows", st.rows)
	}
	if _, err := s.UpdateRow(now, table, inRow, donor, UpdateOnline); err != nil {
		t.Fatal(err)
	}
	if _, err := s.UpdateRow(now, table, outRow, donor, UpdateOnline); err != nil {
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
	oracle := pool(now, 7)
	equal := func(got []float32, stage string) {
		t.Helper()
		for i := range oracle {
			if got[i] != oracle[i] {
				t.Fatalf("%s: element %d = %g, want %g (update lost)", stage, i, got[i], oracle[i])
			}
		}
	}

	// Promote [0, 2·rr) with both dirty entries outstanding.
	m, err := s.BeginPromoteRange(table, 0, 2*rr, 4<<10)
	if err != nil {
		t.Fatal(err)
	}
	now = driveRange(t, m, now)
	equal(pool(now, inRow), "in-window row after range promotion")
	equal(pool(now, outRow), "out-of-window row after range promotion")

	// The out-of-window entry must still be dirty: draining write-back
	// refreshes its SM copy.
	if _, err := s.FlushUpdates(now); err != nil {
		t.Fatal(err)
	}
	equal(pool(now, outRow), "out-of-window row after write-back")

	// Update a row whose range is FM-resident, then demote the window.
	if _, err := s.UpdateRow(now, table, rr+2, donor, UpdateOnline); err != nil {
		t.Fatal(err)
	}
	equal(pool(now, rr+2), "FM-range row updated in place")
	d, err := s.BeginDemoteRange(table, 0, 2*rr, 4<<10)
	if err != nil {
		t.Fatal(err)
	}
	now = driveRange(t, d, now)
	equal(pool(now, inRow), "in-window row after demotion")
	equal(pool(now, rr+2), "FM-updated row after demotion")
	equal(pool(now, outRow), "out-of-window row after demotion")
}

func TestRangeCountersParallelismInvariant(t *testing.T) {
	// Per-range lookup counters are folded in operator order, so they are
	// bit-identical at any engine width.
	run := func(par int) []RangeStat {
		s, o := rangeFixture(t, par)
		now := s.LoadDone()
		for i := 0; i < 40; i++ {
			q := o.gen.Next()
			outs := s.AllocOutputs(q)
			if _, err := s.PoolQuery(now+simclock.Time(i)*1e6, q, outs); err != nil {
				t.Fatal(err)
			}
		}
		return s.RangeStats(nil)
	}
	r1 := run(1)
	r4 := run(4)
	if len(r1) == 0 || len(r1) != len(r4) {
		t.Fatalf("range stats size mismatch: %d vs %d", len(r1), len(r4))
	}
	var total uint64
	for i := range r1 {
		if r1[i] != r4[i] {
			t.Fatalf("range stat %d diverged across parallelism:\n%+v\n%+v", i, r1[i], r4[i])
		}
		total += r1[i].Lookups
	}
	if total == 0 {
		t.Fatal("no range lookups recorded")
	}
}

func TestUpdateDuringInFlightDemotion(t *testing.T) {
	// An update racing a demotion whose chunk already carried the row to
	// SM must write through: otherwise Commit drops the fresh FM copy
	// behind a merely evictable cache entry and the stripe keeps the old
	// bytes forever.
	s, _ := rangeFixture(t, 1)
	const table = 1
	st := s.tables[table]
	rr := st.rangeRows

	now := s.LoadDone()
	m, err := s.BeginPromoteRange(table, 0, rr, 0)
	if err != nil {
		t.Fatal(err)
	}
	now = driveRange(t, m, now)

	d, err := s.BeginDemoteRange(table, 0, rr, 2<<10)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.BeginDemoteRange(table, 0, rr, 0); err == nil {
		t.Fatal("second in-flight demotion of the same table should be rejected")
	}
	// Issue the first chunk — it writes row 0's old bytes to SM.
	if _, _, err := d.Step(now); err != nil {
		t.Fatal(err)
	}
	if d.next <= 0 {
		t.Fatal("first chunk issued no rows")
	}
	donor := make([]byte, st.rowBytes)
	dev, off := s.smLocation(st, 7)
	if err := s.devices[dev].PeekInto(donor, off); err != nil {
		t.Fatal(err)
	}
	if _, err := s.UpdateRow(now, table, 0, donor, UpdateOnline); err != nil {
		t.Fatal(err)
	}
	now = driveRange(t, d, now)

	// The SM stripe — not just the cache — must hold the updated bytes.
	got := make([]byte, st.rowBytes)
	dev0, off0 := s.smLocation(st, 0)
	if err := s.devices[dev0].PeekInto(got, off0); err != nil {
		t.Fatal(err)
	}
	for i := range got {
		if got[i] != donor[i] {
			t.Fatalf("SM byte %d stale after racing update: %d vs %d", i, got[i], donor[i])
		}
	}
	_ = now
}

func TestUpdateDuringInFlightPromotion(t *testing.T) {
	// An offline update racing a promotion whose chunk already read the
	// row must patch the staging image: the cache entry it leaves behind
	// is clean (evictable), so a stale FM install would eventually serve
	// old bytes on the no-cache FM fast path.
	s, _ := rangeFixture(t, 1)
	const table = 1
	st := s.tables[table]
	rr := st.rangeRows

	now := s.LoadDone()
	m, err := s.BeginPromoteRange(table, 0, rr, 2<<10)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.BeginPromoteRange(table, 0, rr, 0); err == nil {
		t.Fatal("second in-flight promotion of the same table should be rejected")
	}
	if _, _, err := m.Step(now); err != nil { // chunk 0 reads row 0's old bytes
		t.Fatal(err)
	}
	donor := make([]byte, st.rowBytes)
	dev, off := s.smLocation(st, 7)
	if err := s.devices[dev].PeekInto(donor, off); err != nil {
		t.Fatal(err)
	}
	if _, err := s.UpdateRow(now, table, 0, donor, UpdateOffline); err != nil {
		t.Fatal(err)
	}
	now = driveRange(t, m, now)

	// Serve row 0 via the FM-range fast path (no cache involved) and
	// compare against row 7's dequantized value.
	spec := st.spec
	pool := func(row int64) []float32 {
		out := [][]float32{make([]float32, spec.Dim)}
		op := workload.TableOp{Table: table, Pools: [][]int64{{row}}}
		if _, err := s.PoolOps(now, []workload.TableOp{op}, [][][]float32{out}); err != nil {
			t.Fatal(err)
		}
		return out[0]
	}
	want := pool(7)
	got := pool(0)
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("element %d: promoted FM image kept pre-update bytes: %g vs %g", i, got[i], want[i])
		}
	}
	if s.Stats().RangeFMReads == 0 {
		t.Fatal("row 0 was not served from the FM range (test would be vacuous)")
	}
}
