// Package workload synthesizes DLRM inference query streams and provides
// the locality analyzers behind the paper's characterization study:
// temporal-locality CDFs (Fig. 4), the per-host locality uplift from sticky
// user→host routing (Fig. 4c), and the spatial-locality heatmap metric
// (Fig. 5, unique indices per unique 4 KB block).
//
// Queries follow the §2.2 semantics: the user side is looked up once per
// query (B_U = 1) while the item side is looked up for a batch of B_I
// candidate items. Per-table indices are drawn from Zipf distributions
// whose ranks are scattered across the table by a bijective permutation, so
// temporal locality is high (power law) while spatial locality is low —
// both as measured in the paper.
package workload

import (
	"fmt"
	"math"
	"slices"

	"sdm/internal/model"
	"sdm/internal/xrand"
)

// TableOp is the index work for one embedding operator in one query:
// Pools[b] holds the indices pooled for batch element b. User ops have one
// pool; item ops have ItemBatch pools.
type TableOp struct {
	// Table indexes into the model instance's Tables slice.
	Table int
	Pools [][]int64
}

// TotalLookups returns the number of row lookups in the op.
func (op TableOp) TotalLookups() int {
	var n int
	for _, p := range op.Pools {
		n += len(p)
	}
	return n
}

// Query is one inference request: a user and the ops across all tables.
// Class is the query's SLO class (0 unless Config.SLOClasses partitions
// the population), consumed by the cluster front-end's admission control
// and per-class tail accounting.
type Query struct {
	UserID int64
	Class  int
	Ops    []TableOp
}

// Lookups returns the total row lookups of the query.
func (q Query) Lookups() int {
	var n int
	for _, op := range q.Ops {
		n += op.TotalLookups()
	}
	return n
}

// Clone returns a deep copy of q with independent storage (one flat index
// backing shared by the copy's pools), safe to retain after the source —
// e.g. a NextShared arena query — is reused.
func (q Query) Clone() Query {
	var b QueryBuf
	b.CopyFrom(q)
	return b.Q
}

// QueryBuf is reusable deep-copy storage for queries: CopyFrom rebuilds
// b.Q as a deep copy of the source, reusing the buffer's previous
// allocations when they are large enough. Cluster front-ends recycle
// QueryBufs to hand arena-backed queries to asynchronous host goroutines
// without per-query garbage.
type QueryBuf struct {
	// Q is the current copy; valid until the next CopyFrom on this buffer.
	Q Query

	idx   []int64
	pools [][]int64
	ops   []TableOp
}

// Size reports the deep-copy storage a query needs: total indices, total
// pools and op count. Callers pooling QueryBufs use it to track high-water
// marks and Reserve capacity up front, so a recycled buffer reallocates at
// most once per new maximum instead of creeping up query by query.
func (q Query) Size() (nIdx, nPools, nOps int) {
	for _, op := range q.Ops {
		nPools += len(op.Pools)
		for _, p := range op.Pools {
			nIdx += len(p)
		}
	}
	return nIdx, nPools, len(q.Ops)
}

// Reserve grows b's storage to hold at least nIdx indices, nPools pools
// and nOps ops, preserving nothing (b.Q is invalidated).
func (b *QueryBuf) Reserve(nIdx, nPools, nOps int) {
	if cap(b.idx) < nIdx {
		b.idx = make([]int64, 0, nIdx)
	}
	if cap(b.pools) < nPools {
		b.pools = make([][]int64, 0, nPools)
	}
	if cap(b.ops) < nOps {
		b.ops = make([]TableOp, 0, nOps)
	}
}

// CopyFrom deep-copies src into b's storage and rebuilds b.Q. The copy
// shares nothing with src; b.Q and everything it references remain valid
// until the next CopyFrom.
func (b *QueryBuf) CopyFrom(src Query) {
	b.Reserve(src.Size())
	idx := b.idx[:0]
	for _, op := range src.Ops {
		for _, p := range op.Pools {
			idx = append(idx, p...)
		}
	}
	b.idx = idx
	// idx is fully built (capacity pre-sized above), so the pool
	// subslices cut here stay valid.
	pools := b.pools[:0]
	off := 0
	for _, op := range src.Ops {
		for _, p := range op.Pools {
			pools = append(pools, idx[off:off+len(p):off+len(p)])
			off += len(p)
		}
	}
	b.pools = pools
	ops := b.ops[:0]
	pi := 0
	for _, op := range src.Ops {
		n := len(op.Pools)
		ops = append(ops, TableOp{Table: op.Table, Pools: pools[pi : pi+n : pi+n]})
		pi += n
	}
	b.ops = ops
	b.Q = Query{UserID: src.UserID, Class: src.Class, Ops: ops}
}

// Config tunes the generator.
type Config struct {
	// NumUsers is the active user population. Users (and items, over a
	// fixed population) are drawn from Zipf distributions, so popular
	// users/items repeat — the source of pooled-cache hits (§4.4).
	NumUsers int64
	// UserAlpha is the popularity skew of users.
	UserAlpha float64
	// SeqChurn is the probability that one index of a user's (or item's)
	// base sequence is resampled for this query, breaking full-sequence
	// pooled-cache hits (models feature drift between queries).
	SeqChurn float64
	// EvalMode switches to the InferenceEval usecase of Table 2:
	// user batch == item batch > 1 (accuracy validation traffic).
	EvalMode bool
	// Spatial controls index scattering: false (default) applies the
	// bijective permutation (low spatial locality, as measured in
	// Fig. 5); true keeps hot ranks contiguous (high spatial locality).
	Spatial bool
	// Drift makes the stream non-stationary (hot-set rotation). The zero
	// value is fully stationary.
	Drift DriftConfig
	// SLOClasses partitions the user population into that many service
	// classes, tagged on every Query.Class by sticky user hash
	// (UserPartition) — deterministic, no extra RNG draws, so enabling
	// classes never perturbs the generated stream. <= 1 leaves every
	// query in class 0.
	SLOClasses int
	Seed       uint64
}

// numItems is the active item population and itemAlpha its popularity
// skew: items are drawn from a Zipf over it, so popular items repeat.
const (
	numItems  = 10000
	itemAlpha = 1.1
)

// Generator produces queries for a model instance.
type Generator struct {
	inst  *model.Instance
	cfg   Config
	rng   *xrand.RNG
	index []*xrand.IndexTable // per table: draws one scattered row index
	userZ *xrand.Zipf
	itemZ *xrand.Zipf

	// seqRNG is the per-pool sequence generator baseSequence reseeds for
	// every (entity, table) pair. A value field rather than a fresh
	// xrand.New per pool: reseeding draws the identical sequence while
	// keeping the hot path free of per-pool RNG allocations.
	seqRNG xrand.RNG

	// memo holds, per table, the base sequences already derived (see
	// seqmemo.go); memoHits of memoPools pools were copied out of it.
	memo      []seqMemo
	memoHits  uint64
	memoPools uint64

	// Arena behind NextShared: one flat []int64 backs every pool of the
	// current query, and ops/pools/ends keep their capacity across
	// queries. Pool boundaries are recorded as offsets (arenaEnds) while
	// arenaIdx grows, then fixed up into subslices once the query's index
	// count is final — so append growth never invalidates a pool.
	arenaIdx   []int64
	arenaEnds  []int
	arenaPools [][]int64
	arenaOps   []TableOp
	opPoolN    []int // pools per op, parallel to arenaOps

	// Drift state: generated-query count, forced rotations, and the
	// current phase's rank→user and rank→item bijections (lazily rebuilt
	// per phase).
	queries      int
	forcedPhases int
	userMap      *xrand.Permuter
	userMapPhase int
	itemMap      *xrand.Permuter
	itemMapPhase int
}

// NewGenerator builds a generator over inst.
func NewGenerator(inst *model.Instance, cfg Config) (*Generator, error) {
	if cfg.NumUsers <= 0 {
		cfg.NumUsers = 100000
	}
	if cfg.UserAlpha == 0 {
		cfg.UserAlpha = 0.9
	}
	if cfg.SLOClasses < 0 {
		return nil, fmt.Errorf("workload: SLOClasses must be >= 0, got %d", cfg.SLOClasses)
	}
	// A non-finite skew would not fail later, it would silently collapse the
	// stream: Rank clamps int64(NaN) to rank 0.
	names := []string{"UserAlpha", "SeqChurn"}
	for i, v := range []float64{cfg.UserAlpha, cfg.SeqChurn} {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("workload: %s must be finite, got %v", names[i], v)
		}
	}
	drift, err := cfg.Drift.validate()
	if err != nil {
		return nil, err
	}
	cfg.Drift = drift
	g := &Generator{
		inst:  inst,
		cfg:   cfg,
		rng:   xrand.New(cfg.Seed),
		index: make([]*xrand.IndexTable, len(inst.Tables)),
		userZ: xrand.NewZipf(cfg.NumUsers, cfg.UserAlpha),
		itemZ: xrand.NewZipf(numItems, itemAlpha),
	}
	for i, s := range inst.Tables {
		if err := s.Validate(); err != nil {
			return nil, err
		}
		perm := xrand.NewPermuter(s.Rows, cfg.Seed^uint64(s.ID)<<17)
		perm.Identity = cfg.Spatial
		g.index[i] = xrand.NewIndexTable(xrand.NewZipf(s.Rows, s.Alpha), perm)
	}
	g.memo = newSeqMemos(inst)
	return g, nil
}

// MemoStats reports how many of the pools drawn so far were copied out of
// the sequence memo instead of being re-derived.
func (g *Generator) MemoStats() (hits, pools uint64) { return g.memoHits, g.memoPools }

// poolLen draws a per-op pooling length around the table's average.
func (g *Generator) poolLen(rng *xrand.RNG, pf float64) int {
	// PF spread: uniform in [0.5·PF, 1.5·PF], minimum 1.
	n := int(pf * (0.5 + rng.Float64()))
	if n < 1 {
		n = 1
	}
	return n
}

// baseSequence appends entity e's deterministic index sequence for table t
// to the arena, optionally churned by one resampled index. boost scales
// the table's pooling factor (1 outside drift phases). The RNG draw
// sequence is byte-identical to the historical per-pool xrand.New path:
// Seed-ing the reused value RNG reproduces New's state exactly. When the
// table's memo slot already holds at least n indices of this entity they
// are copied instead of drawn; churn is applied to the arena copy
// afterwards, so the memo stays un-churned and g.rng sees the same draws
// either way.
func (g *Generator) baseSequence(table int, entity int64, churn bool, boost float64) {
	s := g.inst.Tables[table]
	g.seqRNG.Seed(g.cfg.Seed ^ uint64(entity)*0x9e3779b97f4a7c15 ^ uint64(s.ID)<<40)
	n := g.poolLen(&g.seqRNG, s.PoolingFactor*boost)
	start := len(g.arenaIdx)
	g.arenaIdx = slices.Grow(g.arenaIdx, n)[:start+n]
	seq := g.arenaIdx[start:]
	g.memoPools++
	slot, kept := g.memo[table].slot(entity, n)
	if slot != nil && slot.entity == entity && int(slot.n) >= n {
		g.memoHits++
		slot.hit = true
		for i, v := range kept {
			seq[i] = int64(v)
		}
	} else {
		index := g.index[table]
		for i := range seq {
			seq[i] = index.Draw(&g.seqRNG)
		}
		if slot != nil && slot.claim(entity) {
			slot.n = int32(n)
			for i, v := range seq {
				kept[i] = uint32(v)
			}
		}
	}
	if churn {
		seq[g.rng.Intn(n)] = g.index[table].Draw(g.rng)
	}
	g.arenaEnds = append(g.arenaEnds, len(g.arenaIdx))
}

// NextShared generates one query into the generator's internal arena and
// returns it without allocating: the returned Query (its Ops, Pools and
// index slices) is valid only until the next NextShared/Next call on this
// generator, which reuses the same storage. Callers that retain or hand
// the query to concurrent executors must deep-copy first (Query.Clone, or
// QueryBuf.CopyFrom for allocation-free recycling). The RNG draw sequence
// is identical to Next, so mixing the two never perturbs the stream.
func (g *Generator) NextShared() Query {
	user := g.driftUser(g.userZ.Rank(g.rng))
	q := Query{UserID: user}
	if g.cfg.SLOClasses > 1 {
		q.Class = UserPartition(user, g.cfg.SLOClasses)
	}
	nUser := g.inst.Config.NumUserTables
	userBatch := 1
	if g.cfg.EvalMode {
		userBatch = g.inst.Config.ItemBatch
	}
	g.arenaIdx = g.arenaIdx[:0]
	g.arenaEnds = g.arenaEnds[:0]
	g.arenaOps = g.arenaOps[:0]
	g.opPoolN = g.opPoolN[:0]
	for t := 0; t < len(g.inst.Tables); t++ {
		isUser := t < nUser
		batch := g.inst.Config.ItemBatch
		if isUser {
			batch = userBatch
		}
		boost := g.tableBoost(t)
		g.arenaOps = append(g.arenaOps, TableOp{Table: t})
		g.opPoolN = append(g.opPoolN, batch)
		for b := 0; b < batch; b++ {
			var entity int64
			if isUser {
				entity = user
				if g.cfg.EvalMode && b > 0 {
					// Eval batches different users.
					entity = g.driftUser(g.userZ.Rank(g.rng))
				}
			} else {
				entity = g.driftItem(g.itemZ.Rank(g.rng))
			}
			churn := g.cfg.SeqChurn > 0 && g.rng.Float64() < g.cfg.SeqChurn
			g.baseSequence(t, entity, churn, boost)
		}
	}
	// Fix-up: the flat index arena is final, so pool subslices (and the
	// per-op views over them) can be cut without risking append growth.
	g.arenaPools = g.arenaPools[:0]
	start := 0
	for _, end := range g.arenaEnds {
		g.arenaPools = append(g.arenaPools, g.arenaIdx[start:end:end])
		start = end
	}
	pool := 0
	for i := range g.arenaOps {
		n := g.opPoolN[i]
		g.arenaOps[i].Pools = g.arenaPools[pool : pool+n : pool+n]
		pool += n
	}
	q.Ops = g.arenaOps
	g.queries++
	return q
}

// Next generates one query with independent storage (a deep copy of the
// arena state), safe to retain indefinitely. Hot loops that consume each
// query before generating the next should prefer NextShared.
func (g *Generator) Next() Query {
	return g.NextShared().Clone()
}

// GenerateTrace produces n queries.
func (g *Generator) GenerateTrace(n int) []Query {
	out := make([]Query, n)
	for i := range out {
		out[i] = g.Next()
	}
	return out
}

// Validate checks that every generated index is within its table.
func Validate(inst *model.Instance, qs []Query) error {
	for qi, q := range qs {
		for _, op := range q.Ops {
			if op.Table < 0 || op.Table >= len(inst.Tables) {
				return fmt.Errorf("workload: query %d references table %d of %d", qi, op.Table, len(inst.Tables))
			}
			rows := inst.Tables[op.Table].Rows
			for _, pool := range op.Pools {
				for _, idx := range pool {
					if idx < 0 || idx >= rows {
						return fmt.Errorf("workload: query %d table %d index %d out of %d rows", qi, op.Table, idx, rows)
					}
				}
			}
		}
	}
	return nil
}
