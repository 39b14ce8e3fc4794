package core

import (
	"bytes"
	"fmt"
	"reflect"
	"runtime"
	"testing"
	"time"

	"sdm/internal/blockdev"
	"sdm/internal/cache"
	"sdm/internal/embedding"
	"sdm/internal/placement"
	"sdm/internal/simclock"
	"sdm/internal/uring"
	"sdm/internal/workload"
)

// TestSteadyStateQueryAllocs pins the allocation budget of the warm query
// path. After the arena, caches, scratch and result buffers reach steady
// state, a query allocates nothing at any Parallelism setting — the whole
// chain (NextShared, OutputsFor, PoolQuery with deferred-IO replay) runs
// on recycled storage, on the calling goroutine. The pooled cases turn the
// pooled-embedding cache on at fleet-sticky's 256 KiB, small enough that
// its shards evict during warm-up, so each measured query also inserts
// into full shards.
func TestSteadyStateQueryAllocs(t *testing.T) {
	for _, pooled := range []int64{0, 256 << 10} {
		for _, p := range []int{1, 4} {
			name := fmt.Sprintf("parallelism=%d", p)
			if pooled > 0 {
				name += ",pooled"
			}
			t.Run(name, func(t *testing.T) {
				in, tables := fixture(t)
				cfg := Config{
					Seed: 7, SMTech: blockdev.NandFlash,
					Ring: uring.Config{SGL: true}, CacheBytes: 1 << 20,
					PooledCacheBytes: pooled,
					Parallelism:      p,
				}
				s := openStore(t, in, tables, cfg)
				gen, err := workload.NewGenerator(in, workload.Config{Seed: 7, NumUsers: 500, UserAlpha: 0.8})
				if err != nil {
					t.Fatal(err)
				}
				var obuf OutputBuf
				now := s.LoadDone()
				step := func() {
					now += simclock.Time(time.Millisecond)
					q := gen.NextShared()
					outs := s.OutputsFor(q, &obuf)
					if _, err := s.PoolQuery(now, q, outs); err != nil {
						t.Fatal(err)
					}
				}
				// Warm to steady state: caches filled, every reusable buffer at
				// its high-water size.
				for i := 0; i < 3000; i++ {
					step()
				}
				if ps := s.PooledStats(); pooled > 0 && ps.Evictions == 0 {
					t.Fatalf("the pooled shards evicted nothing during warm-up: %+v", ps)
				}
				if avg := testing.AllocsPerRun(500, step); avg > 0 {
					t.Fatalf("steady-state query allocates %.2f objects/run, want 0", avg)
				}
			})
		}
	}
}

// TestOpenReplicaMatchesOpen verifies the construction-sharing fast path:
// a replica opened from a donor must match a full Open with the same
// config bit for bit — load completion time, stats, device state and every
// query observable — with only the construction cost differing.
func TestOpenReplicaMatchesOpen(t *testing.T) {
	in, tables := fixture(t)
	cfg := Config{
		Seed: 3, SMTech: blockdev.NandFlash,
		Ring: uring.Config{SGL: true}, CacheBytes: 1 << 20,
	}
	donor, err := Open(in, tables, cfg, nil)
	if err != nil {
		t.Fatal(err)
	}

	rcfg := cfg
	rcfg.Seed = 9
	replica, err := OpenReplica(donor, rcfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	fresh, err := Open(in, tables, rcfg, nil)
	if err != nil {
		t.Fatal(err)
	}

	if got, want := replica.LoadDone(), fresh.LoadDone(); got != want {
		t.Fatalf("replica LoadDone %v, fresh Open %v", got, want)
	}
	if got, want := replica.Stats(), fresh.Stats(); !reflect.DeepEqual(got, want) {
		t.Fatalf("post-load store stats diverge:\nreplica %+v\nfresh   %+v", got, want)
	}
	if got, want := replica.DeviceStats(), fresh.DeviceStats(); !reflect.DeepEqual(got, want) {
		t.Fatalf("post-load device stats diverge:\nreplica %+v\nfresh   %+v", got, want)
	}

	// Same trace through both stores: every per-query result, all final
	// stats and every pooled output must match exactly.
	qs := trace(t, in, 40, 123)
	run := func(s *Store) ([]QueryResult, Stats, blockdev.Stats, uring.Stats, float64) {
		results := make([]QueryResult, 0, len(qs))
		sum := 0.0
		now := s.LoadDone()
		for _, q := range qs {
			outs := s.AllocOutputs(q)
			res, err := s.PoolQuery(now, q, outs)
			if err != nil {
				t.Fatal(err)
			}
			now = res.UserIODone
			results = append(results, res)
			for _, op := range outs {
				for _, pool := range op {
					for _, v := range pool {
						sum += float64(v)
					}
				}
			}
		}
		return results, s.Stats(), s.DeviceStats(), s.RingStats(), sum
	}
	rRes, rStats, rDev, rRing, rSum := run(replica)
	fRes, fStats, fDev, fRing, fSum := run(fresh)
	if !reflect.DeepEqual(rRes, fRes) {
		t.Fatal("per-query results diverge between replica and fresh Open")
	}
	if !reflect.DeepEqual(rStats, fStats) {
		t.Fatalf("store stats diverge:\nreplica %+v\nfresh   %+v", rStats, fStats)
	}
	if !reflect.DeepEqual(rDev, fDev) {
		t.Fatalf("device stats diverge:\nreplica %+v\nfresh   %+v", rDev, fDev)
	}
	if !reflect.DeepEqual(rRing, fRing) {
		t.Fatalf("ring stats diverge:\nreplica %+v\nfresh   %+v", rRing, fRing)
	}
	if rSum != fSum {
		t.Fatalf("output checksums diverge: replica %g, fresh %g", rSum, fSum)
	}

	// The donor must be untouched by replica construction and replica
	// queries: its own run still matches a pristine store with its seed.
	pristine, err := Open(in, tables, cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	dRes, dStats, dDev, dRing, dSum := run(donor)
	pRes, pStats, pDev, pRing, pSum := run(pristine)
	if !reflect.DeepEqual(dRes, pRes) || !reflect.DeepEqual(dStats, pStats) ||
		!reflect.DeepEqual(dDev, pDev) || !reflect.DeepEqual(dRing, pRing) || dSum != pSum {
		t.Fatal("donor behavior changed after serving as a replica source")
	}
}

// fmImage returns a table's FM-resident rows back to back.
func fmImage(st *tableState) []byte {
	var b []byte
	for _, f := range st.fm {
		b = append(b, f.b...)
	}
	return b
}

// loadedViews reports whether every FM range of a table is a view of the
// loaded table, at the range's own rows.
func loadedViews(st *tableState, loaded []byte) bool {
	for r, f := range st.fm {
		lo, _ := st.rangeBounds(r)
		if f.owned || &f.b[0] != &loaded[lo*int64(st.rowBytes)] {
			return false
		}
	}
	return true
}

// allocated returns the heap bytes f allocates.
func allocated(f func()) int64 {
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	f()
	runtime.ReadMemStats(&m1)
	return int64(m1.TotalAlloc - m0.TotalAlloc)
}

// replicaFixture opens a donor over a placement that leaves swappable
// tables in both tiers, and n replicas of it, and returns them with the
// loaded tables, one FM-resident swappable table and one SM-resident one.
func replicaFixture(t *testing.T, n int) (donor *Store, replicas []*Store, tables []*embedding.Table, fmTable, smTable int) {
	t.Helper()
	cfg := rangeConfig(2, 8<<10)
	_, inst, tables := adaptiveFixture(t, cfg)
	cfg.Placement = placement.Config{Policy: placement.FixedFMWithCache, UserTablesOnly: true, DRAMBudget: inst.UserBytes() / 3}
	donor, err := Open(inst, tables, cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		rcfg := cfg
		rcfg.Seed += uint64(i + 1)
		r, err := OpenReplica(donor, rcfg, nil)
		if err != nil {
			t.Fatal(err)
		}
		replicas = append(replicas, r)
	}
	fmTable, smTable = -1, -1
	for i, st := range donor.tables {
		switch {
		case !st.swappable:
		case st.target == placement.FM && fmTable < 0:
			fmTable = i
		case st.target == placement.SM && smTable < 0:
			smTable = i
		}
	}
	if fmTable < 0 || smTable < 0 {
		t.Fatalf("fixture: FM-resident swappable table %d, SM-resident %d", fmTable, smTable)
	}
	return donor, replicas, tables, fmTable, smTable
}

// TestReplicaCleanMigrationCopiesNoImage pins what a replica's media cost
// the host heap. Opening a donor and two replicas allocates no media: every
// device reads the loaded tables in place. Demoting a table that started
// FM-resident rewrites the load bytes its reserved stripe already holds, and
// promoting and demoting one of its ranges again moves clean rows: together
// they allocate less than a quarter of one device's capacity, so no media is
// copied, and so does an SM row rewritten with its own bytes and flushed.
// The first update that changes an SM-resident row, flushed to the
// media, copies that device's media exactly once — Capacity bytes — and
// reaches the replica's media alone; a second changing write copies nothing.
func TestReplicaCleanMigrationCopiesNoImage(t *testing.T) {
	var (
		donor          *Store
		replicas       []*Store
		tables         []*embedding.Table
		fmTable, smTbl int
	)
	opened := allocated(func() { donor, replicas, tables, fmTable, smTbl = replicaFixture(t, 2) })
	s := replicas[0]
	capacity := s.devices[0].Capacity()
	// The model's own tables, which the fixture materializes, are a quarter
	// of one device's capacity.
	if opened >= capacity/2 {
		t.Fatalf("opening a donor and two replicas allocated %d bytes, want under half of one %d-byte device", opened, capacity)
	}

	st, rr := s.tables[fmTable], s.TableStats(nil)[fmTable].RangeRows
	now := s.LoadDone()
	clean := allocated(func() {
		m, err := s.BeginDemote(fmTable, 0)
		if err != nil {
			t.Fatal(err)
		}
		now = driveRange(t, m, now)
		for _, up := range []bool{true, false} {
			begin := s.BeginDemoteRange
			if up {
				begin = s.BeginPromoteRange
			}
			if m, err = begin(fmTable, 0, rr, 0); err != nil {
				t.Fatal(err)
			}
			now = driveRange(t, m, now)
			if up && !bytes.Equal(st.fm[0].b, tables[fmTable].Bytes()[:len(st.fm[0].b)]) {
				t.Fatal("promoted range differs from the table's load bytes")
			}
		}
	})
	if clean >= capacity/4 {
		t.Fatalf("clean migrations on a replica allocated %d bytes, want under a quarter of the %d-byte device", clean, capacity)
	}

	// Changed rows on one device, each written back by a flush.
	sm := s.tables[smTbl]
	update := func(row int64, value []byte) int64 {
		return allocated(func() {
			if _, err := s.UpdateRow(now, smTbl, row, value, UpdateOnline); err != nil {
				t.Fatal(err)
			}
			if _, err := s.FlushUpdates(now); err != nil {
				t.Fatal(err)
			}
		})
	}
	// A row rewritten with its own bytes, as a write-back of unchanged
	// weights does, copies nothing.
	if got := update(4, smBytes(t, s, sm, 4)); got >= capacity/4 {
		t.Fatalf("a clean update allocated %d bytes, want no copy of the %d-byte media", got, capacity)
	}
	value := append([]byte(nil), tables[smTbl].Bytes()[:sm.rowBytes]...)
	if bytes.Equal(value, smBytes(t, s, sm, 4)) {
		t.Fatal("fixture: the update does not change the row")
	}
	if got := update(4, value); got < capacity || got >= 2*capacity {
		t.Fatalf("a changing update allocated %d bytes, want one copy of the %d-byte media", got, capacity)
	}
	if got := update(6, value); got >= capacity/4 {
		t.Fatalf("a second changing update on the copied media allocated %d bytes", got)
	}
	for _, r := range []int64{4, 6} {
		if !bytes.Equal(smBytes(t, s, sm, r), value) {
			t.Fatalf("the flushed update of row %d is not on the replica's media", r)
		}
		for _, o := range []*Store{donor, replicas[1]} {
			if bytes.Equal(smBytes(t, o, sm, r), value) {
				t.Fatalf("the replica's update of row %d reached another store's media", r)
			}
		}
	}
}

// TestCacheSharesLoadedTable: a store's row cache keeps a clean SM row as a
// view of the loaded table, which every replica shares and none writes. On
// each of two replicas clean misses read the loaded rows and cache them
// without copying one, and a hit returns the loaded row in place. A
// changing offline UpdateRow on one replica then makes its cached row the
// replica's own copy holding the update, while the loaded table keeps its
// bytes and the donor and the other replica still read it in place. On the
// other replica an online update with the row's own bytes is a dirty copy
// that FlushUpdates writes back and makes a view again, and the cycle
// allocates nothing once warm.
func TestCacheSharesLoadedTable(t *testing.T) {
	donor, replicas, tables, _, smTbl := replicaFixture(t, 2)
	const row = 6
	loaded := tables[smTbl].Bytes()
	orig := bytes.Clone(loaded)
	rb := int64(donor.tables[smTbl].rowBytes)
	want := loaded[row*rb : (row+1)*rb]
	read := func(s *Store) []byte {
		t.Helper()
		st := s.tables[smTbl]
		c := &opCtx{st: st, reads: make([]deferredIO, 0, 1)}
		b, err := s.fetchRow(c, row, make([]byte, rb))
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	for i, s := range replicas {
		st := s.tables[smTbl]
		if _, ok := st.cache.(*cache.MemOptimized); !ok {
			t.Fatalf("fixture: a %T shard", st.cache)
		}
		// Clean misses of rows past row: a copy of each would allocate at
		// least misses·rb bytes in all.
		const misses = 32
		c := &opCtx{st: st, reads: make([]deferredIO, 0, misses)}
		buf := make([]byte, rb)
		if got := allocated(func() {
			for r := int64(row + 1); r <= row+misses; r++ {
				if _, err := s.fetchRow(c, r, buf); err != nil {
					t.Fatal(err)
				}
			}
		}); c.stats.SMReads != misses || got >= misses*rb/4 {
			t.Fatalf("replica %d: %d clean SM misses allocated %d bytes, want no row copied", i, c.stats.SMReads, got)
		}
		if b := read(s); &b[0] != &want[0] {
			t.Fatalf("replica %d: a clean miss did not read the loaded row in place", i)
		}
		if b := read(s); &b[0] != &want[0] || st.cache.Stats().Hits != 1 {
			t.Fatalf("replica %d: a clean hit did not return the loaded row in place (%d hits)", i, st.cache.Stats().Hits)
		}
	}

	s := replicas[0]
	value := bytes.Clone(loaded[:rb])
	if bytes.Equal(value, want) {
		t.Fatal("fixture: the update does not change the row")
	}
	if _, err := s.UpdateRow(s.LoadDone(), smTbl, row, value, UpdateOffline); err != nil {
		t.Fatal(err)
	}
	key := cache.Key{Table: int32(smTbl), Row: row}
	if p := s.tables[smTbl].cache.Peek(key); !bytes.Equal(p, value) || &p[0] == &want[0] || &p[0] == &value[0] {
		t.Fatal("the updated row is not the cache's own copy of the update")
	}
	if b := read(s); !bytes.Equal(b, value) {
		t.Fatal("the updated replica does not read the update")
	}
	if !bytes.Equal(loaded, orig) {
		t.Fatal("an update on a replica wrote the loaded table")
	}
	for i, o := range []*Store{donor, replicas[1]} {
		if b := read(o); &b[0] != &want[0] {
			t.Fatalf("store %d no longer reads the loaded row in place", i)
		}
	}

	// An online update that rewrites the row's own bytes is a dirty copy
	// until the write-back, which leaves the row a view of the loaded table
	// again; the cycle allocates nothing once warm.
	o := replicas[1]
	same := bytes.Clone(want)
	cycle := func() {
		if _, err := o.UpdateRow(o.LoadDone(), smTbl, row, same, UpdateOnline); err != nil {
			t.Fatal(err)
		}
		if p := o.tables[smTbl].cache.Peek(key); &p[0] == &want[0] {
			t.Fatal("a dirty row is a view of the loaded table")
		}
		if _, err := o.FlushUpdates(o.LoadDone()); err != nil {
			t.Fatal(err)
		}
		if p := o.tables[smTbl].cache.Peek(key); &p[0] != &want[0] {
			t.Fatal("the written-back row is not a view of the loaded table")
		}
	}
	if n := testing.AllocsPerRun(10, cycle); n != 0 {
		t.Fatalf("an update and write-back of an unchanged row allocated %.1f objects", n)
	}
}

// TestFMUpdateStaysOnItsStore: a changing UpdateRow of an FM-resident table
// on one replica lands in that store's own copy of the row's range alone —
// the caller's loaded table, the donor and the other replica keep their
// bytes — and a later demotion writes the updated row to that replica's
// media. The copy is one range: a table fixed in FM is one range, its whole
// self, while a swappable table copies the updated range and its other
// ranges stay views of the loaded table. An update that rewrites a row's own
// bytes copies nothing.
func TestFMUpdateStaysOnItsStore(t *testing.T) {
	donor, replicas, tables, swapTable, _ := replicaFixture(t, 2)
	fixedTable := -1
	for i, st := range donor.tables {
		if st.target == placement.FM && !st.swappable {
			fixedTable = i
			break
		}
	}
	for _, c := range []struct {
		name  string
		table int
		multi bool // a swappable table of several ranges, else one range
	}{{"one-range", fixedTable, false}, {"multi-range", swapTable, true}} {
		t.Run(c.name, func(t *testing.T) {
			s := replicas[0]
			if c.table < 0 {
				t.Fatal("fixture: no table fixed in FM")
			}
			st := s.tables[c.table]
			if n := len(st.fm); (n > 1) != c.multi {
				t.Fatalf("fixture: %d FM ranges", n)
			}
			orig := bytes.Clone(tables[c.table].Bytes())
			rb := int64(st.rowBytes)
			const row = 3
			value := bytes.Clone(orig[5*rb : 6*rb])
			if bytes.Equal(value, orig[row*rb:(row+1)*rb]) || (c.multi && st.rangeRows <= row) {
				t.Fatal("fixture: the update does not change the row, or row 3 is past range 0")
			}
			now := s.LoadDone()
			if got := allocated(func() {
				if _, err := replicas[1].UpdateRow(now, c.table, row, orig[row*rb:(row+1)*rb], UpdateOnline); err != nil {
					t.Fatal(err)
				}
			}); got >= int64(len(orig)) {
				t.Fatalf("an equal update allocated %d bytes, want no copy of the %d-byte table", got, len(orig))
			}
			w := int64(len(st.fm[0].b))
			if got := allocated(func() {
				if _, err := s.UpdateRow(now, c.table, row, value, UpdateOnline); err != nil {
					t.Fatal(err)
				}
			}); got < w || got >= w+w/8 {
				t.Fatalf("the first changing update allocated %d bytes, want one copy of the %d-byte range", got, w)
			}
			want := bytes.Clone(orig)
			copy(want[row*rb:], value)
			if !bytes.Equal(fmImage(st), want) {
				t.Fatal("the updated replica does not hold the update")
			}
			if !st.fm[0].owned {
				t.Fatal("the update did not copy the row's range")
			}
			for r, f := range st.fm[1:] {
				if f.owned || &f.b[0] != &tables[c.table].Bytes()[w*int64(r+1)] {
					t.Fatalf("the update copied range %d too", r+1)
				}
			}
			if !bytes.Equal(tables[c.table].Bytes(), orig) {
				t.Fatal("an FM update on a replica rewrote the caller's table")
			}
			for i, o := range []*Store{donor, replicas[1]} {
				if !bytes.Equal(fmImage(o.tables[c.table]), orig) {
					t.Fatalf("an FM update on a replica reached store %d", i)
				}
			}
			if !st.swappable {
				return
			}

			m, err := s.BeginDemote(c.table, 0)
			if err != nil {
				t.Fatal(err)
			}
			driveRange(t, m, now)
			if got := smBytes(t, s, st, row); !bytes.Equal(got, value) {
				t.Fatal("the demotion did not write the updated row")
			}
			if got := smBytes(t, donor, st, row); !bytes.Equal(got, orig[row*rb:(row+1)*rb]) {
				t.Fatal("the replica's demotion reached the donor's media")
			}
		})
	}
}

// TestPromotedUpdateStaysOnItsStore: promotions install the loaded rows, so a
// write that changes a promoted row on one replica must copy them for that
// store first. Four writes do: an UpdateRow to an FM-resident range, an
// offline UpdateRow behind an in-flight range promotion's cursor, a dirty
// cache entry folded in at Commit, and an UpdateRow after a whole-table
// promotion. In each, the replica serves the new row while the caller's
// loaded table, the donor and the other replica keep their bytes, and the
// demotion that follows writes the new row to the replica's media alone.
func TestPromotedUpdateStaysOnItsStore(t *testing.T) {
	const row = 3
	cases := []struct {
		name  string
		whole bool
		// promote promotes the table's first range (the whole table when
		// whole) on s and writes value to row on the way.
		promote func(t *testing.T, s *Store, table int, value []byte, now simclock.Time) simclock.Time
	}{
		{"resident-range", false, func(t *testing.T, s *Store, table int, value []byte, now simclock.Time) simclock.Time {
			m, err := s.BeginPromoteRange(table, 0, s.TableStats(nil)[table].RangeRows, 0)
			if err != nil {
				t.Fatal(err)
			}
			now = driveRange(t, m, now)
			if _, err := s.UpdateRow(now, table, row, value, UpdateOnline); err != nil {
				t.Fatal(err)
			}
			return now
		}},
		{"racing-promotion", false, func(t *testing.T, s *Store, table int, value []byte, now simclock.Time) simclock.Time {
			m, err := s.BeginPromoteRange(table, 0, s.TableStats(nil)[table].RangeRows, 2*s.tables[table].rowBytes)
			if err != nil {
				t.Fatal(err)
			}
			for range 3 {
				if _, _, err := m.Step(now); err != nil {
					t.Fatal(err)
				}
			}
			if m.next <= row || m.Finished() {
				t.Fatalf("fixture: cursor at %d", m.next)
			}
			if _, err := s.UpdateRow(now, table, row, value, UpdateOffline); err != nil {
				t.Fatal(err)
			}
			return driveRange(t, m, now)
		}},
		{"dirty-fold", false, func(t *testing.T, s *Store, table int, value []byte, now simclock.Time) simclock.Time {
			if _, err := s.UpdateRow(now, table, row, value, UpdateOnline); err != nil {
				t.Fatal(err)
			}
			st := s.tables[table]
			if st.cache == nil || !bytes.Equal(st.cache.Peek(cache.Key{Table: int32(st.spec.ID), Row: row}), value) {
				t.Fatal("fixture: the update is not held in the table's cache")
			}
			m, err := s.BeginPromoteRange(table, 0, s.TableStats(nil)[table].RangeRows, 0)
			if err != nil {
				t.Fatal(err)
			}
			return driveRange(t, m, now)
		}},
		{"whole-table", true, func(t *testing.T, s *Store, table int, value []byte, now simclock.Time) simclock.Time {
			m, err := s.BeginPromote(table, 0)
			if err != nil {
				t.Fatal(err)
			}
			now = driveRange(t, m, now)
			if st := s.tables[table]; !loadedViews(st, s.loadedBytes(st)) {
				t.Fatal("a clean whole-table promotion did not install the loaded table")
			}
			if _, err := s.UpdateRow(now, table, row, value, UpdateOnline); err != nil {
				t.Fatal(err)
			}
			return now
		}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			donor, replicas, tables, _, table := replicaFixture(t, 2)
			s, st := replicas[0], replicas[0].tables[table]
			orig := bytes.Clone(tables[table].Bytes())
			rb := int64(st.rowBytes)
			value := bytes.Clone(orig[5*rb : 6*rb])
			if bytes.Equal(value, orig[row*rb:(row+1)*rb]) || st.rangeRows <= 2*row {
				t.Fatalf("fixture: the update does not change the row, or %d-row ranges", st.rangeRows)
			}
			now := c.promote(t, s, table, value, s.LoadDone())

			if !bytes.Equal(st.fmRow(row), value) {
				t.Fatal("the updated replica does not serve the update from FM")
			}
			if !bytes.Equal(tables[table].Bytes(), orig) {
				t.Fatal("a promoted update on a replica rewrote the caller's table")
			}

			var m *Migration
			var err error
			if c.whole {
				m, err = s.BeginDemote(table, 0)
			} else {
				m, err = s.BeginDemoteRange(table, 0, st.rangeRows, 0)
			}
			if err != nil {
				t.Fatal(err)
			}
			driveRange(t, m, now)
			if got := smBytes(t, s, st, row); !bytes.Equal(got, value) {
				t.Fatal("the demotion did not write the updated row")
			}
			for i, o := range []*Store{donor, replicas[1]} {
				if got := smBytes(t, o, st, row); !bytes.Equal(got, orig[row*rb:(row+1)*rb]) {
					t.Fatalf("the replica's update reached store %d's media", i)
				}
			}
			if !bytes.Equal(tables[table].Bytes(), orig) {
				t.Fatal("the demotion rewrote the caller's table")
			}
		})
	}
}

// TestOpenReplicaRejectsConfigDrift verifies the only permitted config
// difference between donor and replica is the seed.
func TestOpenReplicaRejectsConfigDrift(t *testing.T) {
	in, tables := fixture(t)
	cfg := Config{Seed: 3, SMTech: blockdev.NandFlash, Ring: uring.Config{SGL: true}}
	donor, err := Open(in, tables, cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	bad := cfg
	bad.Seed = 4
	bad.CacheBytes = 1 << 24
	if _, err := OpenReplica(donor, bad, nil); err == nil {
		t.Fatal("OpenReplica accepted a config that differs beyond Seed")
	}
}
