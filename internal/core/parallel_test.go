package core

import (
	"errors"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"sdm/internal/blockdev"
	"sdm/internal/cache"
	"sdm/internal/embedding"
	"sdm/internal/pooledcache"
	"sdm/internal/uring"
	"sdm/internal/workload"
)

// engineRun replays a trace through a fresh store at the given parallelism
// and returns every observable: per-query results, final store/cache/
// pooled/device/ring stats and a checksum of all pooled outputs.
type engineRun struct {
	queries []QueryResult
	store   Stats
	cache   cache.Stats
	pooled  pooledcache.Stats
	dev     blockdev.Stats
	ring    uring.Stats
	outSum  float64
}

func runEngine(t *testing.T, parallelism int, cfg Config) engineRun {
	t.Helper()
	in, tables := fixture(t)
	cfg.Parallelism = parallelism
	s := openStore(t, in, tables, cfg)
	qs := trace(t, in, 40, 99)
	now := s.LoadDone()
	var r engineRun
	for _, q := range qs {
		outs := s.AllocOutputs(q)
		res, err := s.PoolQuery(now, q, outs)
		if err != nil {
			t.Fatal(err)
		}
		// Chain issue times so device/ring queue state carries over and
		// any timing divergence compounds into later queries.
		now = res.UserIODone
		r.queries = append(r.queries, res)
		for _, op := range outs {
			for _, pool := range op {
				for _, v := range pool {
					r.outSum += float64(v)
				}
			}
		}
	}
	r.store = s.Stats()
	r.cache = s.CacheStats()
	r.pooled = s.PooledStats()
	r.dev = s.DeviceStats()
	r.ring = s.RingStats()
	return r
}

// TestParallelismBitIdentical is the engine's core guarantee: every
// observable — virtual times, store/cache/pooled/device/ring statistics
// and the pooled outputs themselves — is bit-identical no matter how many
// workers execute the query. Exercises the pooled-cache and SGL paths
// together; under -race this also drives the concurrent
// functional phase.
func TestParallelismBitIdentical(t *testing.T) {
	cfg := Config{
		Seed:               1,
		Ring:               uring.Config{SGL: true},
		PooledCacheBytes:   1 << 18,
		PooledLenThreshold: 2,
	}
	base := runEngine(t, 1, cfg)
	for _, p := range []int{2, 4, 8} {
		got := runEngine(t, p, cfg)
		if !reflect.DeepEqual(base, got) {
			t.Fatalf("parallelism=%d diverged from sequential:\n  p=1: %+v\n  p=%d: %+v",
				p, base, p, got)
		}
	}
}

// TestParallelismBitIdenticalBlockReads covers the non-SGL bounce-buffer
// path with pruning mappers.
func TestParallelismBitIdenticalBlockReads(t *testing.T) {
	cfg := Config{Seed: 2, Prune: true, CacheBytes: 1 << 14}
	base := runEngine(t, 1, cfg)
	got := runEngine(t, 4, cfg)
	if !reflect.DeepEqual(base, got) {
		t.Fatalf("block-read path diverged:\n  p=1: %+v\n  p=4: %+v", base, got)
	}
	if base.dev.Reads == 0 {
		t.Fatal("trace never reached the devices")
	}
}

// TestParallelOracle checks output correctness at a Parallelism setting
// the engine ignores against flat in-memory pooling.
func TestParallelOracle(t *testing.T) {
	in, tables := fixture(t)
	s := openStore(t, in, tables, Config{
		Seed: 1, Ring: uring.Config{SGL: true}, Parallelism: 8,
	})
	checkAgainstOracle(t, s, in, tables, trace(t, in, 20, 14))
}

// TestPoolOpsDuplicateTables verifies that a batch with two ops on the
// same table (which share a cache shard) still executes correctly and
// deterministically — the engine detects the collision and serializes.
func TestPoolOpsDuplicateTables(t *testing.T) {
	run := func(p int) ([]OpResult, Stats) {
		in, tables := fixture(t)
		s := openStore(t, in, tables, Config{Seed: 3, Parallelism: p})
		ops := []workload.TableOp{
			{Table: 0, Pools: [][]int64{{1, 2, 3}}},
			{Table: 1, Pools: [][]int64{{4, 5}}},
			{Table: 0, Pools: [][]int64{{1, 2, 3}, {6}}},
		}
		outs := make([][][]float32, len(ops))
		for i, op := range ops {
			dim := in.Tables[op.Table].Dim
			outs[i] = make([][]float32, len(op.Pools))
			for b := range op.Pools {
				outs[i][b] = make([]float32, dim)
			}
		}
		rs, err := s.PoolOps(s.LoadDone(), ops, outs)
		if err != nil {
			t.Fatal(err)
		}
		return rs, s.Stats()
	}
	rs1, st1 := run(1)
	rs8, st8 := run(8)
	if !reflect.DeepEqual(rs1, rs8) || !reflect.DeepEqual(st1, st8) {
		t.Fatalf("duplicate-table batch diverged: %+v vs %+v", rs1, rs8)
	}
}

// TestPoolOpsValidation checks the batch validation errors at two
// Parallelism settings.
func TestPoolOpsValidation(t *testing.T) {
	in, tables := fixture(t)
	for _, par := range []int{1, 4} {
		s := openStore(t, in, tables, Config{Seed: 1, Parallelism: par})
		if _, err := s.PoolOps(0, []workload.TableOp{{Table: 99}}, [][][]float32{nil}); err == nil {
			t.Fatal("bad table should fail")
		}
		op := workload.TableOp{Table: 0, Pools: [][]int64{{0}}}
		if _, err := s.PoolOps(0, []workload.TableOp{op}, [][][]float32{{make([]float32, 1)}}); err == nil {
			t.Fatal("wrong output dim should fail")
		}
		if _, err := s.PoolOps(0, []workload.TableOp{op}, nil); err == nil {
			t.Fatal("missing outputs should fail")
		}
		neg := workload.TableOp{Table: 0, Pools: [][]int64{{-1}}}
		if _, err := s.PoolOps(0, []workload.TableOp{neg}, [][][]float32{{make([]float32, in.Tables[0].Dim)}}); !errors.Is(err, embedding.ErrRowRange) {
			t.Fatalf("negative row: error %v, want a row-range error", err)
		}
	}
}

// TestPoolOpsFailedBatchBooksNothing pins why the engine defers SM timing
// to a replay phase: a batch whose third of four ops fails in its
// functional phase returns that op's error and leaves the store's
// counters, rings and devices exactly as they were, although the first two
// ops already read rows off the devices. The next valid batch then books
// the same completion instants as on a twin store that never saw the
// failed batch.
func TestPoolOpsFailedBatchBooksNothing(t *testing.T) {
	in, tables := fixture(t)
	cfg := Config{Seed: 5, Ring: uring.Config{SGL: true}, CacheBytes: 1 << 20}
	s := openStore(t, in, tables, cfg)
	twin := openStore(t, in, tables, cfg)
	batch := func(rows [4][]int64) ([]workload.TableOp, [][][]float32) {
		ops := make([]workload.TableOp, len(rows))
		outs := make([][][]float32, len(rows))
		for i, r := range rows {
			ops[i] = workload.TableOp{Table: i, Pools: [][]int64{r}}
			outs[i] = [][]float32{make([]float32, in.Tables[i].Dim)}
		}
		return ops, outs
	}
	type snapshot struct {
		store Stats
		ring  uring.Stats
		dev   blockdev.Stats
	}
	snap := func(s *Store) snapshot { return snapshot{s.Stats(), s.RingStats(), s.DeviceStats()} }

	before := snap(s)
	ops, outs := batch([4][]int64{{1, 2, 3}, {4, 5}, {in.Tables[2].Rows}, {6, 7}})
	if _, err := s.PoolOps(s.LoadDone(), ops, outs); !errors.Is(err, embedding.ErrRowRange) || !strings.Contains(err.Error(), "table 2") {
		t.Fatalf("failed batch returned %v, want table 2's row-range error", err)
	}
	if s.CacheStats().Puts == 0 {
		t.Fatal("the ops before the failure never reached the devices")
	}
	if got := snap(s); !reflect.DeepEqual(got, before) {
		t.Fatalf("failed batch booked state:\n before %+v\n after  %+v", before, got)
	}

	ops, outs = batch([4][]int64{{10, 11}, {12}, {13, 14}, {15}})
	at := s.LoadDone() + 1000
	got, err := s.PoolOps(at, ops, outs)
	if err != nil {
		t.Fatal(err)
	}
	got = append([]OpResult(nil), got...)
	want, err := twin.PoolOps(at, ops, outs)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("valid batch after a failed one:\n got  %+v\n twin %+v", got, want)
	}
	if !reflect.DeepEqual(snap(s), snap(twin)) {
		t.Fatalf("store state diverged from the twin:\n got  %+v\n twin %+v", snap(s), snap(twin))
	}
}

// TestConcurrentStores drives independent stores from concurrent
// goroutines — the fleet-runner shape — to give -race a cross-store
// workout.
func TestConcurrentStores(t *testing.T) {
	in, tables := fixture(t)
	const hosts = 3
	errc := make(chan error, hosts)
	for h := 0; h < hosts; h++ {
		go func(h int) {
			errc <- func() error {
				s, err := Open(in, tables, Config{Seed: uint64(h + 1), Parallelism: 4, Ring: uring.Config{SGL: true}}, nil)
				if err != nil {
					return err
				}
				g, err := workload.NewGenerator(in, workload.Config{Seed: uint64(h) + 7, NumUsers: 50})
				if err != nil {
					return err
				}
				now := s.LoadDone()
				for i := 0; i < 10; i++ {
					q := g.Next()
					outs := s.AllocOutputs(q)
					if _, err := s.PoolQuery(now, q, outs); err != nil {
						return fmt.Errorf("host %d query %d: %w", h, i, err)
					}
				}
				return nil
			}()
		}(h)
	}
	for h := 0; h < hosts; h++ {
		if err := <-errc; err != nil {
			t.Fatal(err)
		}
	}
}
