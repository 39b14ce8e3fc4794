// The query engine. A batch of TableOps executes on the calling goroutine
// in two phases:
//
//  1. A functional phase runs the ops in order. Each op pools its rows
//     through its table's row-cache shard, pooled-cache shard and mapper;
//     SM row data is read in place on the device image (nothing writes a
//     device during a query), but the read's *timing* is only recorded as a
//     deferred IO, and counter deltas stay in the op's context.
//  2. A replay phase walks the ops in order and books every deferred IO
//     through the io_uring model and the device channel/RNG model, then
//     folds the counters.
//
// The split is what makes a failed batch atomic in virtual time: an op that
// fails its functional phase returns before anything is booked on a ring
// or device or folded into a counter. A query's ops are too small (a few
// µs each) to repay a cross-thread hand-off; the cores a simulation can
// use go to hosts, one level up (cluster.Config.HostWorkers).

package core

import (
	"fmt"

	"sdm/internal/placement"
	"sdm/internal/simclock"
	"sdm/internal/workload"
)

// SetParallelism is a no-op: a query's ops always run on the calling
// goroutine. It is kept because the frozen bench/ driver calls it.
func (s *Store) SetParallelism(int) {}

// PoolOps executes a batch of operators issued at the same virtual time
// and returns one OpResult per op. It is PoolQuery without the
// user/item-side aggregation, for callers (like the serving host) that
// classify ops themselves. A one-op batch is the single-operator path
// (Algorithm 1): outs[i] needs one slice per pool of ops[i], each of the
// table's Dim.
//
// Error semantics are uniform: when an op fails validation or its
// functional phase, PoolOps returns its error and records no results,
// counters or SM timing, though cache shards retain rows fetched before
// the failure.
//
// The returned slice is backed by store-owned scratch and is only valid
// until the next PoolOps/PoolQuery call; copy any OpResult that must
// outlive it. Like every Store method it must not be called concurrently.
func (s *Store) PoolOps(now simclock.Time, ops []workload.TableOp, outs [][][]float32) ([]OpResult, error) {
	if len(outs) != len(ops) {
		return nil, fmt.Errorf("core: %d output sets for %d ops", len(outs), len(ops))
	}
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
	}

	ctxs := s.ctxsFor(len(ops))
	for i, op := range ops {
		c := &ctxs[i]
		c.st = s.tables[op.Table]
		c.now = now
		c.res.IODone = now
		if c.st.rangeLookups != nil && c.st.target == placement.SM {
			c.rlk = zeroedRanges(c.rlk, len(c.st.rangeLookups))
		} else {
			c.rlk = nil
		}
		if err := s.runOp(c, op, outs[i]); err != nil {
			return nil, err
		}
	}

	// Replay deferred IO and fold per-op counters in operator order.
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
	clear(dst)
	return dst
}
