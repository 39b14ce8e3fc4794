package core

import (
	"fmt"
	"time"

	"sdm/internal/cache"
	"sdm/internal/embedding"
	"sdm/internal/placement"
	"sdm/internal/quant"
	"sdm/internal/simclock"
	"sdm/internal/workload"
)

// OpResult reports the virtual-time accounting of one embedding operator.
type OpResult struct {
	// IODone is the completion time of the slowest SM IO issued for the
	// op (== the issue time when everything hit FM or cache).
	IODone simclock.Time
	// CPUTime is the host CPU consumed by the op (cache probes,
	// dequantization, pooling, hashing, copies).
	CPUTime time.Duration
	// SMReads is the number of device row reads the op required.
	SMReads int
}

// deferredIO is one SM row read, row j of device dev's stripe, whose data the
// functional phase already pooled; its timing is replayed in operator order.
type deferredIO struct {
	dev int
	j   int64
}

// opCtx is the execution state of one TableOp inside the query engine:
// operator-local accounting plus the deferred IO trace, held back until
// every op of the batch has passed its functional phase.
type opCtx struct {
	st  *tableState
	res OpResult
	// stats accumulates runtime counter deltas, merged into Store.stats
	// in operator order after the functional phase.
	stats Stats
	// rlk accumulates per-row-range lookup deltas for range-provisioned
	// SM tables (nil otherwise), merged into the table state in operator
	// order alongside stats.
	rlk []uint64
	// reads is the deferred IO trace.
	reads []deferredIO
}

// runOp executes one operator's functional phase against c (Algorithm 1
// with the full SDM path): for each pool in the op it consults the pooled
// embedding cache, then per index resolves pruning mappers, probes the FM
// row cache, reads missing rows from SM, and dequantizes+pools into out[b].
// The result carries IO completion and CPU cost so the caller (the host
// simulator) can overlap user- and item-side work per Eq. 3.
func (s *Store) runOp(c *opCtx, op workload.TableOp, out [][]float32) error {
	for b, pool := range op.Pools {
		if err := s.poolOne(c, pool, out[b]); err != nil {
			return err
		}
	}
	return nil
}

// poolOne pools one index sequence for one batch element.
func (s *Store) poolOne(c *opCtx, pool []int64, out []float32) error {
	st := c.st
	// Pooled embedding cache (§4.4, Algorithm 1) — sharded per table.
	usePooled := st.pooled != nil && st.target == placement.SM
	if usePooled {
		c.res.CPUTime += time.Duration(len(pool)) * costHashPerIndex
		if vec := st.pooled.Get(int32(st.spec.ID), pool); vec != nil {
			copy(out, vec)
			c.res.CPUTime += perByteCost(costPooledCopyByteNs, 4*len(out))
			c.stats.PooledHits++
			return nil
		}
		c.stats.PooledMisses++
	}

	clear(out)

	p := quant.NewPooler(out, st.storedSpec.QType)
	if st.target == placement.FM {
		// Direct FM placement: plain memory pooling of the table's ranges,
		// no cache overhead and no range accounting — the baseline SDM
		// competes with in Fig. 6.
		for _, idx := range pool {
			if idx < 0 || idx >= st.rows {
				return fmt.Errorf("core: table %d: %w: %d of %d", st.spec.ID, embedding.ErrRowRange, idx, st.rows)
			}
			if err := p.Add(st.fmRow(idx)); err != nil {
				return err
			}
		}
		if err := p.Flush(); err != nil {
			return err
		}
		n := len(pool)
		c.stats.Lookups += uint64(n)
		c.stats.FMDirectReads += uint64(n)
		c.res.CPUTime += FMPoolCPU(n * st.rowBytes)
		return nil
	}

	for i, idx := range pool {
		if i%quant.PoolerRows == 0 {
			s.prefetch(st, pool[i:min(i+quant.PoolerRows, len(pool))])
		}
		c.stats.Lookups++
		row := idx
		// Pruned tables resolve through the FM mapper tensor (§4.5).
		if st.mapper != nil {
			c.res.CPUTime += costMapperLookup
			if row < 0 || row >= int64(len(st.mapper)) {
				return fmt.Errorf("core: index %d out of mapper range %d", row, len(st.mapper))
			}
			m := st.mapper[row]
			if m < 0 {
				c.stats.MapperSkips++
				continue // pruned row: contributes zero
			}
			row = int64(m)
		}
		slot := s.rowBuf[p.Len()*st.rowBytes:][:st.rowBytes]
		b, err := s.fetchRow(c, row, slot)
		if err != nil {
			return err
		}
		if err := p.Add(b); err != nil {
			return err
		}
	}
	if err := p.Flush(); err != nil {
		return err
	}

	if usePooled {
		st.pooled.Put(int32(st.spec.ID), pool, out)
		c.res.CPUTime += perByteCost(costPooledCopyByteNs, 4*len(out))
	}
	return nil
}

// prefetch names the stored bytes each index of chunk will read — an
// FM-resident range's row, a cached row in its slot, or an SM row on the
// device image — and prefetches them all in one call, so that the ordered
// lookups that follow find every row's lines in flight. It only reads:
// indices the lookups will reject, skip or fail are passed over, and no
// recency bit, counter or virtual time moves.
func (s *Store) prefetch(st *tableState, chunk []int64) {
	var rows [quant.PoolerRows][]byte
	n := 0
	for _, row := range chunk {
		if st.mapper != nil {
			if row < 0 || row >= int64(len(st.mapper)) || st.mapper[row] < 0 {
				continue
			}
			row = int64(st.mapper[row])
		}
		if row < 0 || row >= st.rows {
			continue
		}
		b := st.fmRow(row)
		if b == nil && st.cacheEnabled {
			b = st.cache.Peek(cache.Key{Table: int32(st.spec.ID), Row: row})
		}
		if b == nil {
			dev, j := s.smRow(st, row)
			b, _ = s.devices[dev].Row(st.stripe, j)
		}
		rows[n] = b
		n++
	}
	quant.Prefetch(rows[:n])
}

// fetchRow obtains stored row bytes (FM range → cache shard → SM) for the
// pool: an FM-resident range's own bytes; a cache hit, in place when the
// entry views the loaded table (no write reaches it) and copied into buf
// (one row long) when the cache owns it, since a later Put of the batch may
// reuse its storage before the pool reads it; or the SM row in place on the
// device's media — in the loaded table itself until a write changed the
// device — which no write reaches during a query's functional phase. A
// miss's Put of that row keeps a view of it, copying nothing, while the
// device is clean. The device/ring timing of an SM read is recorded for the
// ordered replay.
func (s *Store) fetchRow(c *opCtx, row int64, buf []byte) ([]byte, error) {
	st := c.st
	rb := st.rowBytes
	if row < 0 || row >= st.rows {
		return nil, fmt.Errorf("core: table %d: %w: %d of %d", st.spec.ID, embedding.ErrRowRange, row, st.rows)
	}
	if c.rlk != nil {
		c.rlk[row/st.rangeRows]++
	}
	// FM-resident row range (partial-table promotion): plain memory read,
	// no cache probe — the per-range analogue of the FM-direct fast path.
	if b := st.fmRow(row); b != nil {
		c.stats.FMDirectReads++
		c.stats.RangeFMReads++
		c.res.CPUTime += FMPoolCPU(rb)
		return b, nil
	}
	key := cache.Key{Table: int32(st.spec.ID), Row: row}

	if st.cacheEnabled {
		c.res.CPUTime += time.Duration(float64(costCacheGetBase) * st.cacheCPUCost)
		if b, ok := st.cache.Get(key, buf); ok {
			c.res.CPUTime += perByteCost(costDequantPerByteNs, len(b))
			return b, nil
		}
	}

	dev, j := s.smRow(st, row)
	b, err := s.devices[dev].Row(st.stripe, j)
	if err != nil {
		return nil, fmt.Errorf("core: SM read table %d row %d: %w", st.spec.ID, row, err)
	}
	c.reads = append(c.reads, deferredIO{dev: dev, j: j})
	c.res.SMReads++
	c.stats.SMReads++
	if quant.IsZeroRow(b, st.storedSpec.QType) { // de-pruning cache pollution (§4.5)
		c.stats.ZeroRowReads++
	}

	if !s.cfg.Ring.SGL {
		// Without SGL the host reads a whole block into an aligned
		// bounce buffer and copies the row out — "more than 2X FM BW
		// needed for every X data pulled in from SM" (§4.3).
		blk := s.devices[dev].Spec().AccessGranularity
		if blk > rb {
			c.stats.FMBytesMoved += uint64(blk + rb)
			c.res.CPUTime += perByteCost(costMemcpyPerByteNs, blk+rb)
		} else {
			c.stats.FMBytesMoved += uint64(2 * rb)
			c.res.CPUTime += perByteCost(costMemcpyPerByteNs, 2*rb)
		}
	} else {
		// SGL lands the row directly in cache storage (§4.3).
		c.stats.FMBytesMoved += uint64(rb)
		c.res.CPUTime += perByteCost(costMemcpyPerByteNs, rb)
	}

	if st.cacheEnabled {
		st.cache.Put(key, b)
		c.res.CPUTime += costCachePut
	}
	c.res.CPUTime += perByteCost(costDequantPerByteNs, rb)
	return b, nil
}

// QueryResult is the aggregate accounting of one query: the user-side and
// item-side IO completions separately (so the caller can apply Eq. 3's
// overlap) and the summed CPU time.
type QueryResult struct {
	UserIODone simclock.Time
	ItemIODone simclock.Time
	CPUTime    time.Duration
	SMReads    int
}

// PoolQuery runs all ops of q at virtual time now, writing pooled outputs
// into outs (outs[i][b] is op i, pool b; dims must match). Ops are issued
// concurrently (inter-op parallelism): each op sees the same issue time.
func (s *Store) PoolQuery(now simclock.Time, q workload.Query, outs [][][]float32) (QueryResult, error) {
	res := QueryResult{UserIODone: now, ItemIODone: now}
	rs, err := s.PoolOps(now, q.Ops, outs)
	if err != nil {
		return res, err
	}
	for i, op := range q.Ops {
		r := rs[i]
		res.CPUTime += r.CPUTime
		res.SMReads += r.SMReads
		if op.Table < s.inst.Config.NumUserTables {
			if r.IODone > res.UserIODone {
				res.UserIODone = r.IODone
			}
		} else {
			if r.IODone > res.ItemIODone {
				res.ItemIODone = r.IODone
			}
		}
	}
	return res, nil
}

// AllocOutputs builds fresh output buffers for a query against this
// store's model (helper for tests and examples). Hot loops should reuse an
// OutputBuf via OutputsFor instead.
func (s *Store) AllocOutputs(q workload.Query) [][][]float32 {
	return s.OutputsFor(q, new(OutputBuf))
}

// OutputBuf recycles query output tensors across calls: one flat float32
// backing resliced into per-op, per-pool views. The zero value is ready to
// use.
type OutputBuf struct {
	flat  []float32
	pools [][]float32
	outs  [][][]float32
}

// OutputsFor returns output buffers shaped for q, reusing b's storage; the
// views are valid until the next OutputsFor call on b. Contents are not
// zeroed — PoolQuery/PoolOps overwrite every element they report.
func (s *Store) OutputsFor(q workload.Query, b *OutputBuf) [][][]float32 {
	nPools, nFloats := 0, 0
	for _, op := range q.Ops {
		nPools += len(op.Pools)
		nFloats += len(op.Pools) * s.inst.Tables[op.Table].Dim
	}
	if cap(b.flat) < nFloats {
		b.flat = make([]float32, nFloats)
	}
	if cap(b.pools) < nPools {
		b.pools = make([][]float32, nPools)
	}
	if cap(b.outs) < len(q.Ops) {
		b.outs = make([][][]float32, len(q.Ops))
	}
	flat, pools := b.flat[:nFloats], b.pools[:nPools]
	outs := b.outs[:len(q.Ops)]
	fo, po := 0, 0
	for i, op := range q.Ops {
		dim := s.inst.Tables[op.Table].Dim
		n := len(op.Pools)
		for p := 0; p < n; p++ {
			pools[po+p] = flat[fo : fo+dim : fo+dim]
			fo += dim
		}
		outs[i] = pools[po : po+n : po+n]
		po += n
	}
	return outs
}
