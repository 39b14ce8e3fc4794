// The sharded parallel query engine. A query's TableOps execute in two
// phases:
//
//  1. A functional phase fans the ops across cfg.Parallelism workers. Each
//     op touches only state owned by its table — the per-table row-cache
//     shard, pooled-cache shard and mapper — plus worker-local scratch, so
//     no locks are taken. SM row data is copied out immediately (device
//     contents are immutable during a query), but the read's *timing* is
//     only recorded as a deferred IO.
//  2. A replay phase walks the ops in index order on the calling goroutine
//     and books every deferred IO through the io_uring model and the
//     device channel/RNG model — exactly the sequence a single-threaded
//     execution would have produced.
//
// Because phase 1 mutates only order-independent state and phase 2 is
// totally ordered, virtual-time accounting, statistics and cache contents
// are bit-identical at every Parallelism setting; only wall-clock time
// changes.

package core

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"sdm/internal/placement"
	"sdm/internal/simclock"
	"sdm/internal/workload"
)

// SetParallelism sets the query-engine worker count for subsequent
// queries; p <= 0 selects GOMAXPROCS. It must not be called concurrently
// with queries. Accounting is unaffected — see Config.Parallelism.
func (s *Store) SetParallelism(p int) {
	if p <= 0 {
		p = runtime.GOMAXPROCS(0)
	}
	s.cfg.Parallelism = p
}

// Parallelism returns the effective worker count of the query engine.
func (s *Store) Parallelism() int { return s.cfg.Parallelism }

// PoolOps executes a batch of operators issued at the same virtual time
// and returns one OpResult per op. It is PoolQuery without the
// user/item-side aggregation, for callers (like the serving host) that
// classify ops themselves. A one-op batch is the single-operator path
// (Algorithm 1): outs[i] needs one slice per pool of ops[i], each of the
// table's Dim.
//
// Error semantics are uniform: when an op fails validation or its
// functional phase, no results, counters or SM timing are recorded, though
// cache shards retain rows fetched before the failure — identically at
// every Parallelism setting.
//
// The returned slice is backed by store-owned scratch and is only valid
// until the next PoolOps/PoolQuery call; copy any OpResult that must
// outlive it. Like every Store method it must not be called concurrently.
func (s *Store) PoolOps(now simclock.Time, ops []workload.TableOp, outs [][][]float32) ([]OpResult, error) {
	if len(outs) != len(ops) {
		return nil, fmt.Errorf("core: %d output sets for %d ops", len(outs), len(ops))
	}
	// Upfront validation, plus duplicate-table detection: two ops on the
	// same table would share a cache shard, so such batches (never emitted
	// by the workload generator) run the functional phase sequentially.
	s.opGen++
	dupTables := false
	for i, op := range ops {
		if op.Table < 0 || op.Table >= len(s.tables) {
			return nil, fmt.Errorf("core: op table %d out of range", op.Table)
		}
		if len(outs[i]) != len(op.Pools) {
			return nil, fmt.Errorf("core: %d output slices for %d pools", len(outs[i]), len(op.Pools))
		}
		dim := s.tables[op.Table].spec.Dim
		for b := range op.Pools {
			if len(outs[i][b]) != dim {
				return nil, fmt.Errorf("core: out[%d] dim %d, want %d", b, len(outs[i][b]), dim)
			}
		}
		if s.opStamp[op.Table] == s.opGen {
			dupTables = true
		}
		s.opStamp[op.Table] = s.opGen
	}

	workers := 1
	if !dupTables {
		workers = s.cfg.Parallelism
		if workers > len(ops) {
			workers = len(ops)
		}
		if workers < 1 {
			workers = 1
		}
	}
	scratch := s.scratchFor(workers)

	ctxs := s.ctxsFor(len(ops))
	var err error
	if workers <= 1 {
		// Closure-free single-worker path: with Parallelism 1 the
		// functional phase allocates nothing. Error semantics match
		// runIndexed — every op runs, the lowest-index error wins.
		for i := range ops {
			if e := s.execOp(ctxs, scratch, ops, outs, now, 0, i); e != nil && err == nil {
				err = e
			}
		}
	} else {
		err = runIndexed(len(ops), workers, func(worker, i int) error {
			return s.execOp(ctxs, scratch, ops, outs, now, worker, i)
		})
	}
	if err != nil {
		return nil, err
	}

	// Deterministic merge: replay deferred IO and fold per-op counters in
	// operator order.
	if cap(s.resBuf) < len(ops) {
		s.resBuf = make([]OpResult, len(ops))
	}
	results := s.resBuf[:len(ops)]
	for i := range ctxs {
		c := &ctxs[i]
		if err := s.replayIO(c); err != nil {
			return nil, err
		}
		s.stats.addRuntime(c.stats)
		c.st.runtime.addRuntime(c.stats)
		for r, v := range c.rlk {
			c.st.rangeLookups[r] += v
		}
		s.stats.CPUTime += c.res.CPUTime
		results[i] = c.res
	}
	return results, nil
}

// execOp prepares op i's context and runs its functional phase on the
// given worker's scratch.
func (s *Store) execOp(ctxs []opCtx, scratch []*opScratch, ops []workload.TableOp, outs [][][]float32, now simclock.Time, worker, i int) error {
	c := &ctxs[i]
	c.st = s.tables[ops[i].Table]
	c.now = now
	c.res.IODone = now
	c.buf = scratch[worker].buf
	if c.st.rangeLookups != nil && c.st.target == placement.SM {
		c.rlk = zeroedRanges(c.rlk, len(c.st.rangeLookups))
	} else {
		c.rlk = nil
	}
	return s.runOp(c, ops[i], outs[i])
}

// replayIO books the timing of an op's deferred SM reads in issue order:
// ring submission, then device channel booking. The row data itself was
// already consumed by the functional phase.
func (s *Store) replayIO(c *opCtx) error {
	for _, io := range c.reads {
		done, err := s.rings[io.dev].SubmitTimedRead(c.now, io.n, io.off)
		if err != nil {
			return fmt.Errorf("core: SM read table %d: %w", c.st.spec.ID, err)
		}
		if done > c.res.IODone {
			c.res.IODone = done
		}
	}
	return nil
}

// addRuntime folds an op's runtime counter deltas into s (load-time fields
// are never touched by op execution).
func (s *Stats) addRuntime(d Stats) {
	s.Lookups += d.Lookups
	s.SMReads += d.SMReads
	s.FMDirectReads += d.FMDirectReads
	s.RangeFMReads += d.RangeFMReads
	s.MapperSkips += d.MapperSkips
	s.ZeroRowReads += d.ZeroRowReads
	s.PooledHits += d.PooledHits
	s.PooledMisses += d.PooledMisses
	s.FMBytesMoved += d.FMBytesMoved
}

// scratchFor returns n per-worker scratch slots, growing the pool lazily.
func (s *Store) scratchFor(n int) []*opScratch {
	for len(s.scratch) < n {
		s.scratch = append(s.scratch, &opScratch{buf: make([]byte, s.maxRowBytes)})
	}
	return s.scratch[:n]
}

// ctxsFor returns n reset per-op contexts, reusing their deferred-IO
// slice capacity across calls.
func (s *Store) ctxsFor(n int) []opCtx {
	for len(s.ctxBuf) < n {
		s.ctxBuf = append(s.ctxBuf, opCtx{})
	}
	ctxs := s.ctxBuf[:n]
	for i := range ctxs {
		reads := ctxs[i].reads
		rlk := ctxs[i].rlk
		ctxs[i] = opCtx{reads: reads[:0], rlk: rlk[:0]}
	}
	return ctxs
}

// zeroedRanges returns dst resized to n with every element zero, reusing
// its capacity.
func zeroedRanges(dst []uint64, n int) []uint64 {
	if cap(dst) < n {
		return make([]uint64, n)
	}
	dst = dst[:n]
	for i := range dst {
		dst[i] = 0
	}
	return dst
}

// runIndexed runs fn(worker, i) for i in [0, n) across the given worker
// count and reports the lowest-index error. Every index runs even when an
// earlier one fails — matching the concurrent schedule, where later ops
// are already in flight when an error surfaces — so the state left behind
// by a failed batch is identical at every worker count. PoolOps runs the
// single-worker case itself, closure-free, with the same semantics.
func runIndexed(n, workers int, fn func(worker, i int) error) error {
	errs := make([]error, n)
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(worker int) {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				errs[i] = fn(worker, i)
			}
		}(w)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}
