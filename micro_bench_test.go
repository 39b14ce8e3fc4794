package sdm

import (
	"fmt"
	"testing"
	"time"

	"sdm/internal/blockdev"
	"sdm/internal/cache"
	"sdm/internal/core"
	"sdm/internal/embedding"
	"sdm/internal/placement"
	"sdm/internal/pooledcache"
	"sdm/internal/quant"
	"sdm/internal/simclock"
	"sdm/internal/uring"
	"sdm/internal/workload"
	"sdm/internal/xrand"
)

// Functional microbenchmarks: real ns/op of the SDM hot paths.
//
// The layer map: each stack layer's steady-state row, in this file unless
// named otherwise. `make bench-micro-compare BASE=<rev> BENCH=<regex>`
// times a row against another revision.
//
//	layer            row
//	blockdev         BenchmarkDeviceAccountRead (timing model, per channel count)
//	uring            BenchmarkRingSubmitTimedRead (one read at the outstanding cap)
//	cache            BenchmarkCacheMemOptimizedCold (get-hit, get-miss, put-evict)
//	pooledcache      BenchmarkPooledCacheGet, BenchmarkPooledCachePut
//	quant            BenchmarkQuantAccumulateRow
//	embedding        BenchmarkTablePool (L1, DRAM)
//	xrand/workload   BenchmarkIndexDraw, BenchmarkGeneratorNextShared
//	core             BenchmarkStoreSMMiss (one PoolQuery on the host-sm-miss shape)
//	serving          BenchmarkHostAdmit (bench_test.go)
//	cluster          BenchmarkFleetRouting, BenchmarkFleetScale (bench_test.go)

// BenchmarkQuantAccumulateRow times the fused dequantize-and-pool inner
// loop on one cache-resident row per encoding and dimension (MB/s is stored
// bytes consumed). Int8 is what every model config stores; 124 is a
// typical benchmark-workload dim.
func BenchmarkQuantAccumulateRow(b *testing.B) {
	for _, qt := range []quant.Type{quant.Int8, quant.FP32} {
		for _, dim := range []int{32, 124, 512} {
			b.Run(fmt.Sprintf("%v/dim%d", qt, dim), func(b *testing.B) {
				src := make([]float32, dim)
				xrand.New(1).NormRow(src, 0, 1)
				row := make([]byte, quant.RowBytes(qt, dim))
				if err := quant.QuantizeRow(row, src, qt); err != nil {
					b.Fatal(err)
				}
				acc := make([]float32, dim)
				b.SetBytes(int64(len(row)))
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if err := quant.AccumulateRow(acc, row, qt); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// BenchmarkTablePool times embedding.Table.Pool (32 random int8 rows of dim
// 124 per op, two quant.Pooler batches) on a table that fits in L1 and on a
// 256 MiB one that a typical LLC does not hold: the first is bound by the
// pooled kernel's arithmetic, the second by how many rows' misses it keeps
// in flight, so a kernel gain shows in one and a layout or prefetch gain in
// the other.
func BenchmarkTablePool(b *testing.B) {
	const dim, pooling = 124, 32
	rb := quant.RowBytes(quant.Int8, dim)
	for _, v := range []struct {
		name string
		rows int64
	}{{"L1", 64}, {"DRAM", 256 << 20 / int64(rb)}} {
		b.Run(v.name, func(b *testing.B) {
			// 64 distinct synthetic rows tiled over the table: content
			// does not change what a random row costs to fetch.
			spec := embedding.Spec{Rows: 64, Dim: dim, QType: quant.Int8, Kind: embedding.Item}
			tile, err := embedding.NewSynthetic(spec, 1)
			if err != nil {
				b.Fatal(err)
			}
			spec.Rows = v.rows
			data := make([]byte, spec.SizeBytes())
			for off := 0; off < len(data); off += copy(data[off:], tile.Bytes()) {
			}
			tb, err := embedding.FromBytes(spec, data)
			if err != nil {
				b.Fatal(err)
			}
			rng := xrand.New(2)
			indices := make([]int64, 1<<16)
			for i := range indices {
				indices[i] = rng.Int63n(v.rows)
			}
			out := make([]float32, dim)
			b.SetBytes(int64(pooling * rb))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				at := i * pooling % len(indices)
				if err := tb.Pool(out, indices[at:at+pooling]); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkCacheMemOptimizedGet(b *testing.B) {
	c := cache.NewMemOptimized(8<<20, 255)
	v := make([]byte, 128)
	for i := 0; i < 10000; i++ {
		c.Put(cache.Key{Row: int64(i)}, v)
	}
	dst := make([]byte, 256)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Get(cache.Key{Row: int64(i % 10000)}, dst)
	}
}

// BenchmarkCacheMemOptimizedPut is one Put that evicts: host-sm-miss's
// 64 KiB row cache of int8 dim-124 rows, full before the timer starts, fed a
// key it has never seen on every call, so each Put runs the set scan and the
// CLOCK hand.
func BenchmarkCacheMemOptimizedPut(b *testing.B) {
	c := cache.NewMemOptimized(64<<10, 255)
	v := make([]byte, quant.RowBytes(quant.Int8, 124))
	for i := 0; i < 4096; i++ {
		c.Put(cache.Key{Row: int64(i)}, v)
	}
	ev0 := c.Stats().Evictions
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Put(cache.Key{Row: int64(4096 + i)}, v)
	}
	b.ReportMetric(float64(c.Stats().Evictions-ev0)/float64(b.N), "evictions/op")
}

// BenchmarkCacheMemOptimizedCold is the row cache out of cache: a 64 MiB
// budget of int8 dim-124 rows, whose set metadata alone is several times a
// core's 2 MiB L2, with keys from a seeded RNG, so every probe lands on a
// set no recent probe touched. get-hit reads resident rows, get-miss probes
// keys never put, and put-evict inserts a new key into the full cache, so
// each Put runs the set scan and the CLOCK hand. The sub-rows share one
// cache, and put-evict runs last.
func BenchmarkCacheMemOptimizedCold(b *testing.B) {
	rb := quant.RowBytes(quant.Int8, 124)
	c := cache.NewMemOptimized(64<<20, rb)
	v := make([]byte, rb)
	rng := xrand.New(6)
	key := func(table int32) cache.Key { return cache.Key{Table: table, Row: int64(rng.Uint64() >> 1)} }
	fill := make([]cache.Key, 64<<20/rb) // more keys than slots: every set fills
	for i := range fill {
		fill[i] = key(1)
		c.Put(fill[i], v)
	}
	resident := fill[:0]
	for _, k := range fill {
		if c.Contains(k) {
			resident = append(resident, k)
		}
	}
	dst := make([]byte, rb)
	b.Run("get-hit", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, ok := c.Get(resident[i%len(resident)], dst); !ok {
				b.Fatal("miss on a resident row")
			}
		}
	})
	b.Run("get-miss", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, ok := c.Get(key(2), dst); ok {
				b.Fatal("hit on a row never put")
			}
		}
	})
	b.Run("put-evict", func(b *testing.B) {
		ev0 := c.Stats().Evictions
		for i := 0; i < b.N; i++ {
			c.Put(key(3), v)
		}
		b.ReportMetric(float64(c.Stats().Evictions-ev0)/float64(b.N), "evictions/op")
	})
}

func BenchmarkCacheCPUOptimizedGet(b *testing.B) {
	c := cache.NewCPUOptimized(16 << 20)
	v := make([]byte, 128)
	for i := 0; i < 10000; i++ {
		c.Put(cache.Key{Row: int64(i)}, v)
	}
	dst := make([]byte, 256)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Get(cache.Key{Row: int64(i % 10000)}, dst)
	}
}

func BenchmarkPooledCacheHash(b *testing.B) {
	idx := make([]int64, 42)
	rng := xrand.New(2)
	for i := range idx {
		idx[i] = rng.Int63n(1 << 30)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pooledcache.HashIndices(idx)
	}
}

// pooledCacheSeqs returns n random 42-index sequences and a pooled
// embedding cache at fleet-sticky's 256 KiB per-host budget that has seen
// the first half of them, each with a dim-124 vector, so that it is full
// and holds the last few hundred of that half.
func pooledCacheSeqs(n int) (*pooledcache.Cache, [][]int64, []float32) {
	rng := xrand.New(4)
	seqs := make([][]int64, n)
	for i := range seqs {
		seqs[i] = make([]int64, 42)
		for j := range seqs[i] {
			seqs[i][j] = rng.Int63n(1 << 30)
		}
	}
	vec := make([]float32, 124)
	c := pooledcache.New(pooledcache.Config{CapacityBytes: 256 << 10})
	for _, s := range seqs[:n/2] {
		c.Put(0, s, vec)
	}
	return c, seqs, vec
}

// BenchmarkPooledCacheGet is one pooledcache.Cache.Get on a full cache: a
// hit (the hash, the map probe and the LRU move) and a miss (the hash and
// the probe).
func BenchmarkPooledCacheGet(b *testing.B) {
	const n = 2048
	c, seqs, _ := pooledCacheSeqs(n)
	resident := int(c.Stats().Items)
	b.ReportAllocs()
	b.Run("hit", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if c.Get(0, seqs[n/2-1-i%resident]) == nil {
				b.Fatal("miss on a resident sequence")
			}
		}
	})
	b.Run("miss", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if c.Get(0, seqs[n/2+i%(n/2)]) != nil {
				b.Fatal("hit on a sequence never put")
			}
		}
	})
}

// BenchmarkPooledCachePut is one pooledcache.Cache.Put of a sequence the
// full cache does not hold, so each Put inserts and evicts the LRU entry.
func BenchmarkPooledCachePut(b *testing.B) {
	const n = 2048
	c, seqs, vec := pooledCacheSeqs(n)
	ev0 := c.Stats().Evictions
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Put(0, seqs[i%n], vec)
	}
	b.ReportMetric(float64(c.Stats().Evictions-ev0)/float64(b.N), "evictions/op")
}

// BenchmarkIndexDraw is the row of one scattered index draw at three of the
// end-to-end benchmark's table shapes (tables 0, 7 and 9: near-harmonic,
// the largest and flattest, the steepest): formula is Permuter.Map(Zipf.Rank),
// table is IndexTable.Draw returning the same values, build is NewIndexTable
// in ns per row. n16M_a1.05 is the old BenchmarkZipfRank row under its old
// parameters (Rank alone, no Map) and stays formula-only: a 16 M-row table
// would be 160 MB and no model here builds one.
func BenchmarkIndexDraw(b *testing.B) {
	shapes := []struct {
		name  string
		rows  int64
		alpha float64
	}{
		{"t0_7902_a0.996", 7902, 0.99593392345782028},
		{"t7_57271_a0.732", 57271, 0.73166621983342939},
		{"t9_4043_a1.248", 4043, 1.2483328950489736},
	}
	variants := []struct {
		name string
		run  func(b *testing.B, z *xrand.Zipf, p *xrand.Permuter, rows int64)
	}{
		{"formula", func(b *testing.B, z *xrand.Zipf, p *xrand.Permuter, _ int64) {
			rng := xrand.New(3)
			for i := 0; i < b.N; i++ {
				p.Map(z.Rank(rng))
			}
		}},
		{"table", func(b *testing.B, z *xrand.Zipf, p *xrand.Permuter, _ int64) {
			t, rng := xrand.NewIndexTable(z, p), xrand.New(3)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				t.Draw(rng)
			}
		}},
		{"build", func(b *testing.B, z *xrand.Zipf, p *xrand.Permuter, rows int64) {
			for i := 0; i < b.N; i++ {
				xrand.NewIndexTable(z, p)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(rows), "ns/row")
		}},
	}
	for _, v := range variants {
		b.Run(v.name, func(b *testing.B) {
			for _, s := range shapes {
				b.Run(s.name, func(b *testing.B) {
					v.run(b, xrand.NewZipf(s.rows, s.alpha), xrand.NewPermuter(s.rows, 42), s.rows)
				})
			}
			if v.name != "formula" {
				return
			}
			b.Run("n16M_a1.05", func(b *testing.B) {
				z, rng := xrand.NewZipf(1<<24, 1.05), xrand.New(3)
				for i := 0; i < b.N; i++ {
					z.Rank(rng)
				}
			})
		})
	}
}

// BenchmarkGeneratorNextShared is the query generator's steady-state row at
// the end-to-end benchmark's model shape: hot is the fleet workloads'
// population, where entities repeat and the sequence memo serves most pools;
// flat is host-sm-miss's, where nearly every user is new and the user side
// is derived from scratch; drift is adapt-drift-writes' stream, whose
// boosted spotlight pools never fit a memo slot and whose cohort is re-keyed
// by a forced rotation every 1000 queries. memo-hit-% is the share of the
// timed loop's pools copied out of the memo.
func BenchmarkGeneratorNextShared(b *testing.B) {
	inst := fleetModel(b, 1.5e-4)
	for _, pop := range []struct {
		name  string
		users int64
		alpha float64
		drift workload.DriftConfig
	}{
		{"hot", 4000, 0.8, workload.DriftConfig{}},
		{"flat", 200000, 0.3, workload.DriftConfig{}},
		{"drift", 2000, 0.8, workload.DriftConfig{HotTables: 2, HotItemTables: 1}},
	} {
		b.Run(pop.name, func(b *testing.B) {
			gen, err := workload.NewGenerator(inst, workload.Config{Seed: 42, NumUsers: pop.users, UserAlpha: pop.alpha, Drift: pop.drift})
			if err != nil {
				b.Fatal(err)
			}
			next := func(i int) {
				if pop.drift.HotTables > 0 && i%1000 == 0 {
					gen.ForceRotation()
				}
				gen.NextShared()
			}
			for i := 0; i < 20000; i++ {
				next(i)
			}
			hits0, pools0 := gen.MemoStats()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				next(i)
			}
			hits, pools := gen.MemoStats()
			b.ReportMetric(100*float64(hits-hits0)/float64(pools-pools0), "memo-hit-%")
		})
	}
}

// BenchmarkDeviceAccountRead is the timing half of one 128-byte SGL read —
// channel booking, jitter draws, counters — at three channel counts. Issue
// instants advance at 80 % of each device's IOPS ceiling.
func BenchmarkDeviceAccountRead(b *testing.B) {
	for _, v := range []struct {
		name string
		tech blockdev.Technology
	}{{"nand45", blockdev.NandFlash}, {"optane40", blockdev.OptaneSSD}, {"dimm6", blockdev.DIMM3DXP}} {
		b.Run(v.name, func(b *testing.B) {
			spec := blockdev.Spec(v.tech)
			dev := blockdev.New(spec, 1<<24, nil, 4)
			gap := simclock.Time(1e9 / (0.8 * spec.MaxIOPS))
			var now simclock.Time
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := dev.AccountRead(now, int64(i%4096)*4096, 128, true); err != nil {
					b.Fatal(err)
				}
				now += gap
			}
		})
	}
}

// BenchmarkRingSubmitTimedRead is one uring.SyncRing.SubmitTimedRead of a
// 128-byte SGL read on a Nand ring held at its outstanding cap: every read
// is issued at the same instant, so each admit waits for the earliest
// in-flight completion, pops it, and the device books the read behind it.
func BenchmarkRingSubmitTimedRead(b *testing.B) {
	dev := blockdev.New(blockdev.Spec(blockdev.NandFlash), 1<<24, nil, 4)
	ring := uring.NewSync(dev, uring.Config{SGL: true})
	read := func(i int) {
		if _, err := ring.SubmitTimedRead(0, 128, int64(i%4096)*4096); err != nil {
			b.Fatal(err)
		}
	}
	for i := 0; i < dev.MaxOutstanding; i++ {
		read(i)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		read(i)
	}
	b.ReportMetric(float64(ring.Stats().PeakInflight), "inflight")
}

// BenchmarkStorePoolOp measures the full SDM lookup path (pooled cache →
// row cache → SM device → dequant+pool) per operator: a one-op PoolOps
// batch (the name predates the PoolOp/PoolOps merge and is kept so the
// ledger row stays comparable).
func BenchmarkStorePoolOp(b *testing.B) {
	inst, err := Build(benchModel(), 1, 5)
	if err != nil {
		b.Fatal(err)
	}
	tables, err := inst.Materialize()
	if err != nil {
		b.Fatal(err)
	}
	store, err := core.Open(inst, tables, core.Config{
		Seed: 5, CacheBytes: 16 << 20, Ring: uring.Config{SGL: true},
	}, nil)
	if err != nil {
		b.Fatal(err)
	}
	gen, err := workload.NewGenerator(inst, workload.Config{Seed: 5, NumUsers: 100})
	if err != nil {
		b.Fatal(err)
	}
	q := gen.Next()
	q.Ops = q.Ops[:1]
	outs := store.AllocOutputs(q)
	now := store.LoadDone()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := store.PoolOps(now, q.Ops, outs); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkStoreSMMiss is one PoolQuery on the host-sm-miss shape: the
// 3e-4 fleet model on Nand behind a 64 KiB row cache with SGL, and a flat
// population of 200 000 users at α 0.3, so most rows miss the cache and are
// read from SM. It cycles 512 pre-drawn queries through one reused
// OutputBuf; virtual time advances 1 ms per query.
func BenchmarkStoreSMMiss(b *testing.B) {
	inst := fleetModel(b, 3e-4)
	tables, err := inst.Materialize()
	if err != nil {
		b.Fatal(err)
	}
	store, err := core.Open(inst, tables, core.Config{
		Seed: 42, SMTech: blockdev.NandFlash, CacheBytes: 64 << 10, Ring: uring.Config{SGL: true},
	}, nil)
	if err != nil {
		b.Fatal(err)
	}
	gen, err := workload.NewGenerator(inst, workload.Config{Seed: 42, NumUsers: 200000, UserAlpha: 0.3})
	if err != nil {
		b.Fatal(err)
	}
	qs := make([]workload.Query, 512)
	for i := range qs {
		qs[i] = gen.Next()
	}
	var ob core.OutputBuf
	now := store.LoadDone()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		q := qs[i%len(qs)]
		if _, err := store.PoolQuery(now, q, store.OutputsFor(q, &ob)); err != nil {
			b.Fatal(err)
		}
		now += simclock.Time(time.Millisecond)
	}
}

// fleetModel is the end-to-end benchmark's model shape (bench/workloads.go:
// M1 trimmed to 8 user / 4 item tables, 4×64 MLP, seed 42) at the given
// capacity scale — 1.5e-4 for the fleets, 3e-4 for host-sm-miss.
func fleetModel(b *testing.B, scale float64) *Instance {
	b.Helper()
	cfg := M1()
	cfg.NumUserTables = 8
	cfg.NumItemTables = 4
	cfg.ItemBatch = 8
	cfg.NumMLPLayers = 4
	cfg.AvgMLPWidth = 64
	inst, err := Build(cfg, scale, 42)
	if err != nil {
		b.Fatal(err)
	}
	return inst
}

// BenchmarkNormRow is the sampler alone: xrand.RNG.NormRow(row, 0, 0.5) on a
// 124-element row, as FillSyntheticRow calls it, in ns per element.
func BenchmarkNormRow(b *testing.B) {
	rng, row := xrand.New(1), make([]float32, 124)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		rng.NormRow(row, 0, 0.5)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(len(row)), "ns/elem")
}

// BenchmarkSyntheticRow is the unit of Materialize: FillSyntheticRow then an
// int8 QuantizeRow of one dim-124 row (a fresh row each op, none zero).
func BenchmarkSyntheticRow(b *testing.B) {
	row := make([]float32, 124)
	dst := make([]byte, quant.RowBytes(quant.Int8, len(row)))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		embedding.FillSyntheticRow(row, 42, 7, int64(i), 0)
		if err := quant.QuantizeRow(dst, row, quant.Int8); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkQuantizeRow is one int8 QuantizeRow of a cache-resident synthetic
// row (MB/s is source float32 bytes consumed).
func BenchmarkQuantizeRow(b *testing.B) {
	for _, dim := range []int{32, 124, 512} {
		b.Run(fmt.Sprintf("dim%d", dim), func(b *testing.B) {
			src := make([]float32, dim)
			embedding.FillSyntheticRow(src, 42, 7, 1, 0)
			dst := make([]byte, quant.RowBytes(quant.Int8, dim))
			b.SetBytes(int64(4 * dim))
			for i := 0; i < b.N; i++ {
				if err := quant.QuantizeRow(dst, src, quant.Int8); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkNewIndexTable builds the index table of the largest table of
// host-sm-miss's model (scale 3e-4), the generator's biggest set-up item;
// ns/row is per table row. NewIndexTable fills on up to GOMAXPROCS workers:
// compare at the same -cpu.
func BenchmarkNewIndexTable(b *testing.B) {
	inst := fleetModel(b, 3e-4)
	s := inst.Tables[0]
	for _, t := range inst.Tables {
		if t.Rows > s.Rows {
			s = t
		}
	}
	z, p := xrand.NewZipf(s.Rows, s.Alpha), xrand.NewPermuter(s.Rows, 42)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		xrand.NewIndexTable(z, p)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(s.Rows), "ns/row")
}

// BenchmarkMaterialize is model.Instance.Materialize on the end-to-end
// benchmark's model — the synthetic row fill that dominates its setup_s
// (MB/s is stored table bytes produced).
func BenchmarkMaterialize(b *testing.B) {
	inst := fleetModel(b, 1.5e-4)
	var total int64
	for _, s := range inst.Tables {
		total += s.SizeBytes()
	}
	b.SetBytes(total)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := inst.Materialize(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRangeMigration is the host cost of one ranged migration the way
// adapt-drift-writes issues it: a four-range (≈ 1 MiB) window of the model's
// largest user table moved in 64 KiB chunks, Begin → Step… → Commit per
// iteration, over one device and over a two-device stripe. MB/s is window
// bytes; B/op is what the migration engine allocates per window. The
// opposite move that restores the window runs outside the timer.
// replica/… is the first demotion of a clean window on a fresh
// core.OpenReplica replica — the first write to its load images;
// the replica and the promotion before the demotion are built outside the
// timer, so B/op is what that first write costs the host.
func BenchmarkRangeMigration(b *testing.B) {
	inst := fleetModel(b, 1.5e-4)
	tables, err := inst.Materialize()
	if err != nil {
		b.Fatal(err)
	}
	const table, chunk = 7, 64 << 10
	for _, name := range []string{"promote", "demote", "replica"} {
		for _, devs := range []int{1, 2} {
			b.Run(fmt.Sprintf("%s/dev%d", name, devs), func(b *testing.B) {
				cfg := core.Config{
					Seed: 5, ReserveSM: true, NumDevices: devs, Ring: uring.Config{SGL: true},
					CacheBytes: 1 << 20,
					Placement:  placement.Config{Policy: placement.SMOnlyWithCache, UserTablesOnly: true},
				}
				store, err := core.Open(inst, tables, cfg, nil)
				if err != nil {
					b.Fatal(err)
				}
				hi := 4 * store.TableStats(nil)[table].RangeRows
				now := store.LoadDone()
				move := func(store *core.Store, up bool) {
					begin := store.BeginDemoteRange
					if up {
						begin = store.BeginPromoteRange
					}
					m, err := begin(table, 0, hi, chunk)
					if err != nil {
						b.Fatal(err)
					}
					for !m.Finished() {
						if _, _, err := m.Step(now); err != nil {
							b.Fatal(err)
						}
					}
					if err := m.Commit(); err != nil {
						b.Fatal(err)
					}
					now = m.Done() + 1
				}
				b.SetBytes(hi * int64(inst.Tables[table].RowBytes()))
				b.ReportAllocs()
				promote := name == "promote"
				if name == "demote" {
					move(store, true)
				}
				b.ResetTimer()
				if name == "replica" {
					// The donor itself is never written, as OpenReplica requires.
					for i := 0; i < b.N; i++ {
						b.StopTimer()
						replica, err := core.OpenReplica(store, cfg, nil)
						if err != nil {
							b.Fatal(err)
						}
						now = replica.LoadDone()
						move(replica, true)
						b.StartTimer()
						move(replica, false)
					}
					return
				}
				for i := 0; i < b.N; i++ {
					move(store, promote)
					b.StopTimer()
					move(store, !promote)
					b.StartTimer()
				}
			})
		}
	}
}

func benchModel() ModelConfig {
	cfg := M1()
	cfg.NumUserTables = 4
	cfg.NumItemTables = 2
	cfg.ItemBatch = 4
	cfg.TotalBytes = 1 << 22
	return cfg
}
