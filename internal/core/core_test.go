package core

import (
	"bytes"
	"math"
	"slices"
	"testing"

	"sdm/internal/blockdev"
	"sdm/internal/cache"
	"sdm/internal/embedding"
	"sdm/internal/model"
	"sdm/internal/placement"
	"sdm/internal/quant"
	"sdm/internal/simclock"
	"sdm/internal/uring"
	"sdm/internal/workload"
)

// fixture builds a small model instance plus materialized tables.
func fixture(t *testing.T) (*model.Instance, []*embedding.Table) {
	t.Helper()
	cfg := model.M1()
	cfg.NumUserTables = 5
	cfg.NumItemTables = 3
	cfg.ItemBatch = 4
	cfg.TotalBytes = 1 << 21
	in, err := model.Build(cfg, 1, 21)
	if err != nil {
		t.Fatal(err)
	}
	tables, err := in.Materialize()
	if err != nil {
		t.Fatal(err)
	}
	return in, tables
}

func openStore(t *testing.T, in *model.Instance, tables []*embedding.Table, cfg Config) *Store {
	t.Helper()
	s, err := Open(in, tables, cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// checkAgainstOracle pools a trace through the store and compares every
// output against flat in-memory pooling of the original tables.
func checkAgainstOracle(t *testing.T, s *Store, in *model.Instance, tables []*embedding.Table, qs []workload.Query) {
	t.Helper()
	now := s.LoadDone()
	for qi, q := range qs {
		outs := s.AllocOutputs(q)
		res, err := s.PoolQuery(now, q, outs)
		if err != nil {
			t.Fatalf("query %d: %v", qi, err)
		}
		if res.UserIODone < now || res.ItemIODone < now {
			t.Fatalf("query %d: IO completion went backwards", qi)
		}
		now = res.UserIODone
		for oi, op := range q.Ops {
			want := make([]float32, in.Tables[op.Table].Dim)
			for b, pool := range op.Pools {
				if err := tables[op.Table].Pool(want, pool); err != nil {
					t.Fatal(err)
				}
				for k := range want {
					if d := math.Abs(float64(outs[oi][b][k] - want[k])); d > 1e-4 {
						t.Fatalf("query %d op %d pool %d elem %d: %g vs oracle %g",
							qi, oi, b, k, outs[oi][b][k], want[k])
					}
				}
			}
		}
	}
}

func trace(t *testing.T, in *model.Instance, n int, seed uint64) []workload.Query {
	t.Helper()
	g, err := workload.NewGenerator(in, workload.Config{Seed: seed, NumUsers: 50})
	if err != nil {
		t.Fatal(err)
	}
	return g.GenerateTrace(n)
}

func TestStoreMatchesOracleBaseline(t *testing.T) {
	in, tables := fixture(t)
	s := openStore(t, in, tables, Config{Seed: 1})
	checkAgainstOracle(t, s, in, tables, trace(t, in, 20, 1))
}

func TestStoreMatchesOracleSGL(t *testing.T) {
	in, tables := fixture(t)
	s := openStore(t, in, tables, Config{Seed: 1, Ring: uring.Config{SGL: true}})
	checkAgainstOracle(t, s, in, tables, trace(t, in, 20, 2))
}

func TestStoreMatchesOraclePruned(t *testing.T) {
	in, tables := fixture(t)
	s := openStore(t, in, tables, Config{Seed: 1, Prune: true})
	if s.Stats().MapperFMBytes == 0 {
		t.Fatal("pruned store must account mapper FM bytes")
	}
	checkAgainstOracle(t, s, in, tables, trace(t, in, 20, 3))
}

func TestStoreMatchesOracleDepruned(t *testing.T) {
	in, tables := fixture(t)
	s := openStore(t, in, tables, Config{Seed: 1, Prune: true, Deprune: true})
	if s.Stats().MapperFMBytes != 0 {
		t.Fatal("depruned store must free all mapper FM")
	}
	if s.Stats().DeprunedTables == 0 {
		t.Fatal("deprune should have materialized tables")
	}
	checkAgainstOracle(t, s, in, tables, trace(t, in, 20, 4))
}

func TestStoreMatchesOracleDequantAtLoad(t *testing.T) {
	in, tables := fixture(t)
	s := openStore(t, in, tables, Config{Seed: 1, DequantAtLoad: true, Ring: uring.Config{SGL: true}})
	checkAgainstOracle(t, s, in, tables, trace(t, in, 15, 5))
}

func TestStoreMatchesOraclePooledCache(t *testing.T) {
	in, tables := fixture(t)
	s := openStore(t, in, tables, Config{
		Seed: 1, PooledCacheBytes: 1 << 20, PooledLenThreshold: 2,
		Ring: uring.Config{SGL: true},
	})
	// Replay the same trace twice so pooled-cache hits serve real queries.
	qs := trace(t, in, 15, 7)
	checkAgainstOracle(t, s, in, tables, qs)
	checkAgainstOracle(t, s, in, tables, qs)
	if s.PooledStats().Hits == 0 {
		t.Fatal("replayed trace should hit the pooled cache")
	}
}

func TestStoreMatchesOracleCacheVariants(t *testing.T) {
	for _, kind := range []CacheKind{CacheDual, CacheMemOptimized, CacheCPUOptimized} {
		in, tables := fixture(t)
		s := openStore(t, in, tables, Config{Seed: 1, CacheKind: kind})
		checkAgainstOracle(t, s, in, tables, trace(t, in, 10, 8))
	}
}

func TestCacheWarmsUp(t *testing.T) {
	in, tables := fixture(t)
	s := openStore(t, in, tables, Config{Seed: 1, CacheBytes: 32 << 20, Ring: uring.Config{SGL: true}})
	qs := trace(t, in, 60, 9)
	now := s.LoadDone()
	for _, q := range qs {
		outs := s.AllocOutputs(q)
		if _, err := s.PoolQuery(now, q, outs); err != nil {
			t.Fatal(err)
		}
	}
	cold := s.CacheStats().HitRate()
	// Re-run the same queries against a warm cache.
	before := s.CacheStats()
	for _, q := range qs {
		outs := s.AllocOutputs(q)
		if _, err := s.PoolQuery(now, q, outs); err != nil {
			t.Fatal(err)
		}
	}
	after := s.CacheStats()
	warmHits := after.Hits - before.Hits
	warmTotal := warmHits + (after.Misses - before.Misses)
	warm := float64(warmHits) / float64(warmTotal)
	if warm <= cold {
		t.Fatalf("warm hit rate %.2f should exceed cold %.2f", warm, cold)
	}
	if warm < 0.9 {
		t.Fatalf("replayed trace should be ≈fully cached, hit=%.2f", warm)
	}
}

func TestDepruneExtraAccesses(t *testing.T) {
	// §4.5: de-pruning sends a few extra (zero-row) reads to SM and the
	// cache — measured at +2.5% requests in the paper.
	in, tables := fixture(t)
	qs := trace(t, in, 80, 10)

	pruned := openStore(t, in, tables, Config{Seed: 1, Prune: true})
	depruned := openStore(t, in, tables, Config{Seed: 1, Prune: true, Deprune: true})
	run := func(s *Store) Stats {
		now := s.LoadDone()
		for _, q := range qs {
			outs := s.AllocOutputs(q)
			if _, err := s.PoolQuery(now, q, outs); err != nil {
				t.Fatal(err)
			}
		}
		return s.Stats()
	}
	sp := run(pruned)
	sd := run(depruned)
	if sp.MapperSkips == 0 {
		t.Fatal("pruned store should skip pruned rows via mapper")
	}
	if sd.ZeroRowReads == 0 {
		t.Fatal("depruned store should read zero rows (cache pollution)")
	}
	// De-pruning turns mapper skips into real reads: more SM traffic.
	if sd.SMReads+sd.FMDirectReads <= sp.SMReads+sp.FMDirectReads {
		t.Fatal("deprune should increase total row reads")
	}
	// And the depruned store must free mapper FM for cache.
	if sd.EffCacheBytes <= sp.EffCacheBytes {
		t.Fatal("deprune should enlarge the effective cache budget")
	}
}

func TestSGLSavesFMBandwidthAndBus(t *testing.T) {
	in, tables := fixture(t)
	qs := trace(t, in, 40, 11)
	run := func(sgl bool) (*Store, Stats) {
		s := openStore(t, in, tables, Config{Seed: 1, Ring: uring.Config{SGL: sgl}, CacheBytes: 1 << 14})
		now := s.LoadDone()
		for _, q := range qs {
			outs := s.AllocOutputs(q)
			if _, err := s.PoolQuery(now, q, outs); err != nil {
				t.Fatal(err)
			}
		}
		return s, s.Stats()
	}
	sBlock, stBlock := run(false)
	sSGL, stSGL := run(true)
	// §4.3: without SGL, >2× FM bandwidth per byte pulled from SM.
	if stBlock.FMBytesMoved <= 2*stSGL.FMBytesMoved {
		t.Fatalf("block-mode FM traffic %d should far exceed SGL %d",
			stBlock.FMBytesMoved, stSGL.FMBytesMoved)
	}
	// §4.1.1: SGL saves most of the bus bandwidth.
	if sav := sSGL.DeviceStats().BusSavings(); sav < 0.5 {
		t.Fatalf("SGL bus savings %.2f too low", sav)
	}
	if sav := sBlock.DeviceStats().BusSavings(); sav != 0 {
		t.Fatalf("block reads should have no bus savings, got %.2f", sav)
	}
}

func TestPlacementFMDirect(t *testing.T) {
	in, tables := fixture(t)
	s := openStore(t, in, tables, Config{
		Seed: 1,
		Placement: placement.Config{
			Policy: placement.FixedFMWithCache, UserTablesOnly: true,
			DRAMBudget: 1 << 30, // everything fits: all FM
		},
	})
	qs := trace(t, in, 10, 12)
	now := s.LoadDone()
	for _, q := range qs {
		outs := s.AllocOutputs(q)
		res, err := s.PoolQuery(now, q, outs)
		if err != nil {
			t.Fatal(err)
		}
		if res.SMReads != 0 {
			t.Fatal("all-FM placement should never touch SM")
		}
	}
	if s.Stats().SMReads != 0 {
		t.Fatal("SM read counter should stay zero")
	}
}

func TestFixedFMTablesAreFMResident(t *testing.T) {
	// A table fixed in FM serves every byte from FM, swappable or not: the
	// item tables of a store opened without ReserveSM read their whole
	// stored footprint, and an SM table reads none.
	in, tables := fixture(t)
	s := openStore(t, in, tables, Config{Seed: 1})
	for _, c := range []struct {
		table int
		want  int64
	}{{0, 0}, {5, 73932}, {6, 324522}, {7, 230516}} {
		table, want := c.table, c.want
		st := s.TableStats(nil)[table]
		if got := s.FMResidentBytes(table); got != want || (st.Target == placement.FM) != (want > 0) {
			t.Errorf("table %d (target %v): %d FM-resident bytes, want %d", table, st.Target, got, want)
		}
	}
}

func TestUpdateRowOfflineAndOnline(t *testing.T) {
	in, tables := fixture(t)
	s := openStore(t, in, tables, Config{Seed: 1, Ring: uring.Config{SGL: true}})
	// Pick an SM-resident user table and a non-pruned row.
	tbl := 0
	spec := in.Tables[tbl]
	newVal := make([]byte, spec.RowBytes())
	for i := range newVal {
		newVal[i] = byte(i)
	}
	now := s.LoadDone()
	if _, err := s.UpdateRow(now, tbl, 3, newVal, UpdateOffline); err != nil {
		t.Fatal(err)
	}
	// Read back through the store path: craft a single-row query.
	op := workload.TableOp{Table: tbl, Pools: [][]int64{{3}}}
	out := [][]float32{make([]float32, spec.Dim)}
	if _, err := s.PoolOps(now, []workload.TableOp{op}, [][][]float32{out}); err != nil {
		t.Fatal(err)
	}
	// Online update goes cache-first, then flushes.
	if _, err := s.UpdateRow(now, tbl, 5, newVal, UpdateOnline); err != nil {
		t.Fatal(err)
	}
	devWritesBefore := s.DeviceStats().Writes
	if _, err := s.FlushUpdates(now); err != nil {
		t.Fatal(err)
	}
	if s.DeviceStats().Writes <= devWritesBefore {
		t.Fatal("flush should write dirty rows to SM")
	}
}

// TestFlushUpdatesInStoreOrder: FlushUpdates writes the row caches' dirty
// rows back table by table in store order, whatever order the updates came
// in, and leaves them clean. A store whose dirty rows came in reverse table
// order flushes exactly as one that wrote the same rows offline in table
// order, and not as one that wrote them in reverse.
func TestFlushUpdatesInStoreOrder(t *testing.T) {
	in, tables := fixture(t)
	cfg := Config{Seed: 1, Ring: uring.Config{SGL: true}}
	flushed, inOrder, reversed := openStore(t, in, tables, cfg), openStore(t, in, tables, cfg), openStore(t, in, tables, cfg)
	var order []int // the SM tables with a row cache, in store order
	for i, st := range flushed.tables {
		if st.target == placement.SM && st.cache != nil {
			order = append(order, i)
		}
	}
	if len(order) < 2 {
		t.Fatalf("fixture: %d cached SM tables", len(order))
	}
	reverse := slices.Clone(order)
	slices.Reverse(reverse)
	value := func(i int) []byte {
		rb := in.Tables[i].RowBytes()
		v := bytes.Clone(tables[i].Bytes()[rb : 2*rb])
		v[0]++
		return v
	}
	now := flushed.LoadDone()
	offline := func(s *Store, order []int) simclock.Time {
		done := now
		for _, i := range order {
			d, err := s.UpdateRow(now, i, 1, value(i), UpdateOffline)
			if err != nil {
				t.Fatal(err)
			}
			done = max(done, d)
		}
		return done
	}
	for _, i := range reverse {
		if _, err := flushed.UpdateRow(now, i, 1, value(i), UpdateOnline); err != nil {
			t.Fatal(err)
		}
	}
	got, err := flushed.FlushUpdates(now)
	if want := offline(inOrder, order); err != nil || got != want || flushed.DeviceStats() != inOrder.DeviceStats() {
		t.Fatalf("flush done at %v (%v), table-order writes at %v; device stats %+v vs %+v", got, err, want, flushed.DeviceStats(), inOrder.DeviceStats())
	}
	if offline(reversed, reverse) == got {
		t.Fatal("fixture: the write order does not show in the completion instant")
	}
	before := flushed.DeviceStats()
	if done, err := flushed.FlushUpdates(now + 1); err != nil || done != now+1 || flushed.DeviceStats() != before {
		t.Fatalf("a second flush wrote again: done %v (%v), stats %+v", done, err, flushed.DeviceStats())
	}
}

// TestUpdateErrors: a bad table, a wrong row size and an SM table's row
// before its first or past its last fail. A rejected row, on a plain and on
// a pruned store, writes nothing — in particular not the next table's first
// row, which follows the last one on the device.
func TestUpdateErrors(t *testing.T) {
	in, tables := fixture(t)
	s := openStore(t, in, tables, Config{Seed: 1})
	if _, err := s.UpdateRow(0, 99, 0, nil, UpdateOffline); err == nil {
		t.Fatal("bad table should fail")
	}
	if _, err := s.UpdateRow(0, 0, 0, []byte{1}, UpdateOffline); err == nil {
		t.Fatal("wrong row size should fail")
	}
	for _, prune := range []bool{false, true} {
		s := openStore(t, in, tables, Config{Seed: 1, Prune: prune})
		const tbl = 0
		spec, next := in.Tables[tbl], in.Tables[tbl+1]
		value := bytes.Repeat([]byte{0x5a}, spec.RowBytes())
		before, after := make([]float32, next.Dim), make([]float32, next.Dim)
		pool := func(out []float32) {
			op := workload.TableOp{Table: tbl + 1, Pools: [][]int64{{0}}}
			if _, err := s.PoolOps(s.LoadDone(), []workload.TableOp{op}, [][][]float32{{out}}); err != nil {
				t.Fatal(err)
			}
		}
		pool(before)
		writes := s.DeviceStats().Writes
		for _, row := range []int64{-1, spec.Rows, spec.Rows + 1} {
			for _, mode := range []UpdateMode{UpdateOffline, UpdateOnline} {
				if _, err := s.UpdateRow(s.LoadDone(), tbl, row, value, mode); err == nil {
					t.Fatalf("prune %v: UpdateRow of row %d of %d succeeded", prune, row, spec.Rows)
				}
			}
		}
		if _, err := s.FlushUpdates(s.LoadDone()); err != nil {
			t.Fatal(err)
		}
		pool(after)
		if w := s.DeviceStats().Writes; w != writes || !slices.Equal(before, after) {
			t.Fatalf("prune %v: rejected updates wrote %d IOs; table %d row 0 changed: %v", prune, w-writes, tbl+1, !slices.Equal(before, after))
		}
	}
}

func TestUpdateIntervalLimit(t *testing.T) {
	in, tables := fixture(t)
	nand := openStore(t, in, tables, Config{Seed: 1, SMTech: blockdev.NandFlash})
	opt := openStore(t, in, tables, Config{Seed: 1, SMTech: blockdev.OptaneSSD})
	ni, oi := nand.UpdateIntervalLimit(), opt.UpdateIntervalLimit()
	if ni <= 0 || oi <= 0 {
		t.Fatal("intervals must be positive")
	}
	if oi >= ni {
		t.Fatalf("Optane endurance should allow more frequent updates (%v vs %v)", oi, ni)
	}
}

func TestWarmupOverprovision(t *testing.T) {
	// §A.4 worked example: r=10%, w=5min, p=50%, t=30min → 1.2%... the
	// paper's arithmetic (r·w)/(p·t) = (0.10·5)/(0.50·30) = 3.33%; its
	// printed example swaps w and t producing 1.2%* — we implement the
	// formula as defined.
	const minute = 60 * 1e9
	got := WarmupOverprovision(0.10, 0.50, 5*minute, 30*minute)
	if math.Abs(got-0.0333) > 0.001 {
		t.Fatalf("overprovision %.4f, want 0.0333", got)
	}
	if WarmupOverprovision(0.1, 0, 1, 1) != 0 {
		t.Fatal("p=0 should return 0")
	}
}

func TestLoadAccounting(t *testing.T) {
	in, tables := fixture(t)
	s := openStore(t, in, tables, Config{Seed: 1})
	st := s.Stats()
	if st.LoadSMBytes == 0 || st.LoadDuration <= 0 {
		t.Fatalf("load accounting empty: %+v", st)
	}
	if s.DeviceStats().BytesWritten == 0 {
		t.Fatal("model load must wear the device (endurance)")
	}
	// SM bytes loaded should approximate the user-table payload.
	if st.LoadSMBytes < in.UserBytes()/2 {
		t.Fatalf("loaded %d, user bytes %d", st.LoadSMBytes, in.UserBytes())
	}
}

func TestOpenValidation(t *testing.T) {
	in, tables := fixture(t)
	if _, err := Open(in, tables[:2], Config{}, nil); err == nil {
		t.Fatal("table/spec mismatch should fail")
	}
	if _, err := Open(in, tables, Config{Placement: placement.Config{DenySM: []int{999}}}, nil); err == nil {
		t.Fatal("bad placement must propagate")
	}
}

func TestCacheKindString(t *testing.T) {
	for _, k := range []CacheKind{CacheDual, CacheMemOptimized, CacheCPUOptimized} {
		if k.String() == "" {
			t.Errorf("empty name for %d", k)
		}
	}
}

// TestCacheDualShardKinds: the paper's dim ≤ 255 split resolves per table —
// a CacheDual store gives a table of ≤ 255-byte rows a memory-optimized
// shard and a table of larger rows a CPU-optimized one.
func TestCacheDualShardKinds(t *testing.T) {
	in, tables := fixture(t)
	s := openStore(t, in, tables, Config{Seed: 1, CacheKind: CacheDual})
	for _, rowBytes := range []int{64, 255, 256, 1024} {
		shard := s.mkCacheShard(1<<16, rowBytes, nil)
		_, mem := shard.(*cache.MemOptimized)
		_, cpu := shard.(*cache.CPUOptimized)
		if mem != (rowBytes <= 255) || cpu == mem {
			t.Fatalf("%d-byte rows got a %T shard", rowBytes, shard)
		}
	}
}

func TestZeroRowDetectedInMaterializedTable(t *testing.T) {
	in, tables := fixture(t)
	_ = in
	// Find a zero row and a non-zero row in the first table.
	tb := tables[0]
	dim := tb.Spec().Dim
	row := make([]float32, dim)
	var zero, nonzero []byte
	for r := int64(0); r < tb.Spec().Rows && (zero == nil || nonzero == nil); r++ {
		if err := tb.DequantizeRow(row, r); err != nil {
			t.Fatal(err)
		}
		all := true
		for _, v := range row {
			if v != 0 {
				all = false
				break
			}
		}
		raw, _ := tb.Row(r)
		if all && zero == nil {
			zero = raw
		}
		if !all && nonzero == nil {
			nonzero = raw
		}
	}
	if zero == nil || nonzero == nil {
		t.Skip("fixture lacks zero/non-zero rows")
	}
	if !quant.IsZeroRow(zero, tb.Spec().QType) {
		t.Fatal("zero row not detected")
	}
	if quant.IsZeroRow(nonzero, tb.Spec().QType) {
		t.Fatal("non-zero row misdetected")
	}
}
