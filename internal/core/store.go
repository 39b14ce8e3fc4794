package core

import (
	"fmt"
	"reflect"
	"slices"
	"time"

	"sdm/internal/blockdev"
	"sdm/internal/cache"
	"sdm/internal/embedding"
	"sdm/internal/model"
	"sdm/internal/placement"
	"sdm/internal/pooledcache"
	"sdm/internal/quant"
	"sdm/internal/simclock"
	"sdm/internal/uring"
)

// Store is the SDM tiered embedding store. It owns the SM devices, the FM
// row cache, the pooled embedding cache and the per-table placement state,
// and serves pooled embedding lookups with virtual-time accounting.
//
// Store methods must not be called concurrently: whoever drives a store
// (a host, an experiment loop) books its virtual time from one goroutine,
// and PoolQuery/PoolOps run a query's operators on that goroutine too (see
// parallel.go). The caches are sharded by table: each table gets its own
// FM budget.
type Store struct {
	cfg  Config
	inst *model.Instance

	devices []*blockdev.Device
	rings   []*uring.SyncRing

	plan   *placement.Plan
	tables []*tableState

	// loadDone is the virtual time at which model load (SM writes)
	// finished.
	loadDone simclock.Time

	stats Stats

	// rowBuf is the query engine's row scratch for cache hits: one slot per
	// row a quant.Pooler gathers, each as wide as the widest stored row.
	rowBuf []byte
	// ctxBuf holds reusable per-op execution contexts (their deferred-IO
	// slices keep capacity across queries), so the query hot path is
	// allocation-light.
	ctxBuf []opCtx
	// resBuf backs the OpResult slice PoolOps returns; the results of one
	// call are overwritten by the next (see PoolOps doc).
	resBuf []OpResult
	// flush is FlushUpdates' state, kept so a write-back allocates nothing.
	flush flushState

	// stripes is each device's load image (blockdev.NewLoaded): the loaded
	// tables' rows, read in place. Replica stores share it; it is never
	// written, and promotions install its rows as FM views (fmRows).
	stripes [][]blockdev.Stripe
}

// tableState is the runtime placement of one table.
type tableState struct {
	spec         embedding.Spec
	target       placement.Target
	cacheEnabled bool

	// swappable marks tables provisioned for runtime FM↔SM migration
	// (cfg.ReserveSM): an SM stripe is reserved and a cache shard exists
	// whichever tier the table currently occupies.
	swappable bool

	// Row-range provisioning (swappable tables only): rows partition into
	// fixed-width ranges of rangeRows rows (the last one may be short), and
	// rangeLookups holds the per-range row-lookup counters, folded in
	// operator order like every other runtime counter.
	rangeRows    int64
	rangeLookups []uint64

	// fm is the table's FM residency, one fmRows per range: fm[r] holds
	// range r's stored rows while it is FM-resident and is zero while it
	// serves from SM. An FM-target table has every range resident — a
	// table without range provisioning has one range, its whole self — and
	// a whole-table migration moves all of them and flips target. fm is
	// nil until a range of an SM-target table is first promoted. fmBytes
	// is the stored bytes of the resident ranges.
	fm      []fmRows
	fmBytes int64

	// migIn/migOut track the table's in-flight promotion/demotion (one
	// each), so UpdateRow can keep rows whose chunk already moved
	// coherent: an update racing an issued demote chunk writes through to
	// SM, one racing an issued promote chunk patches its FM destination.
	migIn  *Migration
	migOut *Migration

	// runtime accumulates this table's runtime counters, folded by the
	// query engine's replay phase.
	runtime Stats

	// SM layout: rows stripe across devices; row r lives on device
	// r % numDevices as row r/numDevices of the device's load stripe number
	// stripe, at byte offset smBase + (r/numDevices)*rowBytes.
	stripe   int
	rowBytes int
	rows     int64

	// storedSpec may differ from spec when DequantAtLoad expands rows to
	// FP32 (QType and RowBytes change; Rows/Dim stay).
	storedSpec embedding.Spec

	// mapper is the pruned-index mapping tensor kept in FM (§4.5); nil
	// when the table is unpruned or was de-pruned at load.
	mapper []int32

	// cache is this table's FM row-cache shard (nil when caching is off
	// for the table) and cacheCPUCost its per-probe cost model.
	cache        cache.RowCache
	cacheCPUCost float64

	// pooled is this table's pooled-embedding-cache shard (§4.4), nil
	// unless the pooled cache is enabled and the table is SM-resident.
	pooled *pooledcache.Cache
}

// Stats aggregates store counters.
type Stats struct {
	Lookups        uint64 // row lookups requested (post pooled-cache)
	SMReads        uint64 // row reads that went to a device
	FMDirectReads  uint64 // reads served from FM-direct tables or FM-resident ranges
	RangeFMReads   uint64 // subset of FMDirectReads served by FM-resident row ranges
	MapperSkips    uint64 // pruned rows resolved to zero via mapper
	ZeroRowReads   uint64 // de-pruned zero rows actually read (cache pollution)
	PooledHits     uint64
	PooledMisses   uint64
	FMBytesMoved   uint64 // FM bandwidth consumed by the IO path
	MapperFMBytes  int64  // FM consumed by mapper tensors
	EffCacheBytes  int64  // FM cache budget after mapper charge
	CPUTime        time.Duration
	LoadSMBytes    int64 // bytes written to SM at load
	LoadDuration   time.Duration
	DeprunedTables int

	// Adaptive-tiering counters: committed runtime placement swaps (and
	// the subset that moved row ranges rather than whole tables) plus the
	// migration bytes they moved through the devices.
	Migrations          int
	RangeMigrations     int
	MigratedSMToFMBytes uint64
	MigratedFMToSMBytes uint64
	// DemoteWriteBytes counts SM media bytes written by demotion Steps as
	// they issue (committed or not) — the endurance cost of tiering
	// decisions, accounted per table in TableStat so wear-aware placement
	// can see which tables churn the write budget.
	DemoteWriteBytes uint64
}

// Open loads a model into the SDM store: places tables per the plan,
// applies the load-time transformations (prune/de-prune/de-quantize),
// writes SM-resident tables to the devices (accounting write time and
// endurance), and sizes the FM caches. tables must be the materialized
// tables of inst (same order). The clock parameter is ignored (see
// simclock.Clock).
func Open(inst *model.Instance, tables []*embedding.Table, cfg Config, _ *simclock.Clock) (*Store, error) {
	cfg = cfg.Defaulted()
	if len(tables) != len(inst.Tables) {
		return nil, fmt.Errorf("core: %d tables for %d specs", len(tables), len(inst.Tables))
	}
	if cfg.ReserveSM && (cfg.Prune || cfg.Deprune || cfg.DequantAtLoad) {
		return nil, fmt.Errorf("core: ReserveSM requires identity load transforms (no Prune/Deprune/DequantAtLoad)")
	}
	plan, err := placement.New(inst, cfg.Placement)
	if err != nil {
		return nil, fmt.Errorf("core: placement: %w", err)
	}
	s := &Store{cfg: cfg, inst: inst, plan: plan}

	if err := s.loadTables(tables); err != nil {
		return nil, err
	}
	if err := s.accountLoad(); err != nil {
		return nil, err
	}
	s.buildCaches()
	return s, nil
}

// OpenReplica builds a store identical to a freshly opened donor except
// for its seed-driven timing. Replica hosts in a fleet load the same
// tables through the same config, so the stored media bytes are identical
// across hosts; only the device RNG draws (and hence load timing) differ.
// Instead of re-running load transforms and filling per-device media, the
// replica shares the donor's load stripes (each device copies on change,
// see blockdev.Device), its loaded tables and its immutable metadata, and
// books only the load timing — the same accountLoad walk Open runs — with
// its own RNG. Every observable — media contents, stats, device RNG state,
// load completion time — matches a full Open with the same cfg bit for
// bit; only the construction cost changes.
//
// cfg must equal the donor's config except for Seed, and the donor must
// not have executed queries or writes yet. Concurrent OpenReplica calls on
// one donor are safe; the replica itself follows the usual single-threaded
// Store contract. The clock parameter is ignored (see simclock.Clock).
func OpenReplica(donor *Store, cfg Config, _ *simclock.Clock) (*Store, error) {
	cfg = cfg.Defaulted()
	want := donor.cfg
	want.Seed = cfg.Seed
	if !reflect.DeepEqual(want, cfg) {
		return nil, fmt.Errorf("core: replica config differs from donor beyond Seed")
	}

	s := &Store{cfg: cfg, inst: donor.inst, plan: donor.plan}
	s.tables = make([]*tableState, len(donor.tables))
	for i, dt := range donor.tables {
		st := &tableState{
			spec:         dt.spec,
			target:       dt.target,
			cacheEnabled: dt.cacheEnabled,
			swappable:    dt.swappable,
			rangeRows:    dt.rangeRows,
			fm:           slices.Clone(dt.fm), // the views are shared, the slots are not
			fmBytes:      dt.fmBytes,
			stripe:       dt.stripe,
			rowBytes:     dt.rowBytes,
			rows:         dt.rows,
			storedSpec:   dt.storedSpec,
			mapper:       dt.mapper, // read-only mapping tensor
		}
		if dt.rangeLookups != nil {
			st.rangeLookups = make([]uint64, len(dt.rangeLookups))
		}
		s.tables[i] = st
	}
	s.stats.MapperFMBytes = donor.stats.MapperFMBytes
	s.stats.DeprunedTables = donor.stats.DeprunedTables

	s.rowBuf = make([]byte, len(donor.rowBuf))
	if err := s.newDevices(donor.devices[0].Capacity(), donor.stripes); err != nil {
		return nil, err
	}
	if err := s.accountLoad(); err != nil {
		return nil, err
	}
	s.buildCaches()
	return s, nil
}

// loadTables applies load-time transformations and creates the devices
// over a load image of every striped table's bytes; accountLoad books the
// SM residents' writes.
func (s *Store) loadTables(tables []*embedding.Table) error {
	// First pass: transform tables and compute SM footprint.
	type smLoad struct {
		idx   int
		table *embedding.Table
	}
	var (
		loads   []smLoad
		smBytes int64
	)
	s.tables = make([]*tableState, len(tables))
	for i, t := range tables {
		st := &tableState{
			spec:         s.inst.Tables[i],
			target:       s.plan.Target(i),
			cacheEnabled: s.plan.CacheEnabled(i),
		}
		if s.cfg.ReserveSM && s.cfg.Placement.EligibleSM(i, st.spec.Kind) {
			st.swappable = true
		}
		if st.swappable {
			// Row-range provisioning: the partial-migration grain, fixed
			// for the store's lifetime so range indices stay stable.
			rb := int64(st.spec.RowBytes())
			st.rangeRows = s.cfg.MigrationRangeBytes / rb
			if st.rangeRows < 1 {
				st.rangeRows = 1
			}
			st.rangeLookups = make([]uint64, (st.spec.Rows+st.rangeRows-1)/st.rangeRows)
		}
		if st.target == placement.FM {
			// FM tables are stored as loaded: their ranges read the
			// caller's table until a write changes one (fmRows).
			st.storedSpec = t.Spec()
			st.rowBytes = t.Spec().RowBytes()
			st.rows = t.Spec().Rows
			st.fm = st.loadedRanges(t.Bytes(), 0, st.rows)
			st.fmBytes = t.Spec().SizeBytes()
			if st.swappable {
				// A reserved stripe, so a runtime demotion has somewhere to
				// write. Identity load transforms (enforced with ReserveSM)
				// make the FM bytes exactly what a clean demotion writes.
				smBytes += t.Spec().SizeBytes()
				loads = append(loads, smLoad{idx: i, table: t})
			}
			s.tables[i] = st
			continue
		}
		stored := t
		if s.cfg.Prune {
			pruned, err := embedding.PruneZeroRows(t, pruneEps)
			if err != nil {
				return fmt.Errorf("core: prune table %d: %w", i, err)
			}
			if s.cfg.Deprune {
				// Algorithm 2: materialize dense, drop the mapper.
				dt, err := pruned.Deprune()
				if err != nil {
					return fmt.Errorf("core: deprune table %d: %w", i, err)
				}
				stored = dt
				s.stats.DeprunedTables++
			} else {
				stored = pruned.Dense
				st.mapper = pruned.Mapper
				s.stats.MapperFMBytes += pruned.MapperBytes()
			}
		}
		if s.cfg.DequantAtLoad {
			dq, err := stored.Dequantize()
			if err != nil {
				return fmt.Errorf("core: dequantize table %d: %w", i, err)
			}
			stored = dq
		}
		st.storedSpec = stored.Spec()
		st.rowBytes = stored.Spec().RowBytes()
		st.rows = stored.Spec().Rows
		smBytes += stored.Spec().SizeBytes()
		loads = append(loads, smLoad{idx: i, table: stored})
		s.tables[i] = st
	}

	// Stripe the rows across the devices: row r of a table lives on device
	// r % n. A reserved stripe of an FM-resident table holds its load bytes
	// too, though accountLoad books no write for it and nothing reads it
	// before a demotion writes it: a clean demotion then rewrites the bytes
	// already there, which copies nothing.
	n := int64(s.cfg.NumDevices)
	stripes := make([][]blockdev.Stripe, n)
	cursor := make([]int64, n)
	maxRowBytes := 0
	for k, ld := range loads {
		st := s.tables[ld.idx]
		st.stripe = k
		for d := int64(0); d < n; d++ {
			stripes[d] = append(stripes[d], blockdev.Stripe{
				Off: cursor[d], Src: ld.table.Bytes(), RowBytes: st.rowBytes,
				Stride: n, Phase: d, Rows: ceilRows(st.rows-d, n),
			})
			cursor[d] += stripes[d][k].Rows * int64(st.rowBytes)
		}
		maxRowBytes = max(maxRowBytes, st.rowBytes)
	}
	s.rowBuf = make([]byte, quant.PoolerRows*maxRowBytes)
	// Capacity: the SM-resident tables plus 25% headroom, which the load
	// image does not allocate.
	return s.newDevices(smBytes/n+smBytes/(4*n)+(4<<20), stripes)
}

// newDevices creates the store's devices over the load image stripes, one
// ring each.
func (s *Store) newDevices(capacity int64, stripes [][]blockdev.Stripe) error {
	spec := blockdev.Spec(s.cfg.SMTech)
	s.stripes = stripes
	s.devices = make([]*blockdev.Device, len(stripes))
	s.rings = make([]*uring.SyncRing, len(stripes))
	for d := range s.devices {
		dev, err := blockdev.NewLoaded(spec, capacity, stripes[d], s.cfg.Seed+uint64(d)*7919)
		if err != nil {
			return fmt.Errorf("core: device %d: %w", d, err)
		}
		s.devices[d], s.rings[d] = dev, uring.NewSync(dev, s.cfg.Ring)
	}
	return nil
}

// accountLoad books the load-phase SM writes: every SM-resident table's
// stripe on every device, in table then device order, in 1 MiB chunks all
// issued at virtual time 0. The bytes are already on the media (the load
// image), so only timing, stats, wear and RNG
// draws accrue. Open and OpenReplica both run this one walk, so replica
// timing cannot drift from load timing.
func (s *Store) accountLoad() error {
	const (
		loadIssue = simclock.Time(0)
		chunk     = int64(1 << 20)
	)
	for i, st := range s.tables {
		if st.target != placement.SM {
			continue
		}
		for d, dev := range s.devices {
			devBytes := ceilRows(st.rows-int64(d), int64(len(s.devices))) * int64(st.rowBytes)
			for off := int64(0); off < devBytes; off += chunk {
				n := min(chunk, devBytes-off)
				t, err := dev.AccountWrite(loadIssue, s.smBase(st, d)+off, int(n))
				if err != nil {
					return fmt.Errorf("core: load table %d: %w", i, err)
				}
				s.loadDone = max(s.loadDone, t)
			}
			s.stats.LoadSMBytes += devBytes
		}
	}
	s.stats.LoadDuration = s.loadDone.Duration()
	return nil
}

// buildCaches sizes the FM caches after mapper tensors take their cut.
// Both the row cache and the pooled cache are sharded by table: each
// cache-enabled SM table gets its own shard with a budget proportional to
// its stored bytes.
func (s *Store) buildCaches() {
	eff := s.cfg.CacheBytes - s.stats.MapperFMBytes - s.cfg.PooledCacheBytes
	if eff < 1<<12 {
		eff = 1 << 12
	}
	s.stats.EffCacheBytes = eff

	// Row-cache shards, budget ∝ stored SM bytes. Swappable tables get a
	// shard whichever tier they start in, so a runtime demotion finds its
	// cache already provisioned (and still warm from any earlier SM stint).
	var cached []*tableState
	var totalBytes int64
	for _, st := range s.tables {
		if !st.cacheEnabled || (st.target != placement.SM && !st.swappable) {
			continue
		}
		cached = append(cached, st)
		totalBytes += st.storedSpec.SizeBytes()
	}
	remaining := eff
	for i, st := range cached {
		budget := remaining
		if i < len(cached)-1 {
			budget = int64(float64(eff) * float64(st.storedSpec.SizeBytes()) / float64(totalBytes))
		}
		if budget < 1<<12 {
			budget = 1 << 12
		}
		remaining -= budget
		if remaining < 0 {
			remaining = 0
		}
		st.cache = s.mkCacheShard(budget, st.rowBytes, s.loadedBytes(st))
		st.cacheCPUCost = st.cache.CPUCostPerGet()
	}

	// Pooled-cache shards: the §4.4 budget splits evenly across the SM
	// tables it can serve.
	if s.cfg.PooledCacheBytes > 0 {
		var smTables []*tableState
		for _, st := range s.tables {
			if st.target == placement.SM || st.swappable {
				smTables = append(smTables, st)
			}
		}
		if n := int64(len(smTables)); n > 0 {
			pcfg := s.cfg.pooledConfig()
			pcfg.CapacityBytes /= n
			if pcfg.CapacityBytes < 1<<12 {
				pcfg.CapacityBytes = 1 << 12
			}
			for _, st := range smTables {
				st.pooled = pooledcache.New(pcfg)
			}
		}
	}
}

// mkCacheShard builds one table's row-cache shard over src, its loaded
// table. Rows of a table are uniform-size, so the dual organization
// resolves per table: a shard holds either small rows (memory-optimized,
// slots sized to the row) or large rows (CPU-optimized) — the paper's
// dim≤255 routing with no per-probe dispatch.
func (s *Store) mkCacheShard(budget int64, rowBytes int, src []byte) cache.RowCache {
	slot := min(rowBytes, s.cfg.CacheSplitBytes)
	if s.cfg.CacheKind == CacheCPUOptimized || s.cfg.CacheKind != CacheMemOptimized && rowBytes > slot {
		slot = 0 // CPU-optimized
	}
	return cache.New(budget, slot, src)
}

// Config returns the (defaulted) store configuration.
func (s *Store) Config() Config { return s.cfg }

// LoadDone returns the virtual time at which model load completed.
func (s *Store) LoadDone() simclock.Time { return s.loadDone }

// Stats returns a snapshot of store counters.
func (s *Store) Stats() Stats { return s.stats }

// CacheStats sums the FM row-cache counters across the per-table shards.
func (s *Store) CacheStats() cache.Stats {
	var agg cache.Stats
	for _, st := range s.tables {
		if st.cache != nil {
			agg = agg.Add(st.cache.Stats())
		}
	}
	return agg
}

// PooledStats sums the pooled-cache counters across the per-table shards
// (zero if disabled).
func (s *Store) PooledStats() pooledcache.Stats {
	var agg pooledcache.Stats
	for _, st := range s.tables {
		if st.pooled != nil {
			agg = agg.Add(st.pooled.Stats())
		}
	}
	return agg
}

// DeviceStats sums the counters across SM devices.
func (s *Store) DeviceStats() blockdev.Stats {
	var agg blockdev.Stats
	for _, d := range s.devices {
		ds := d.Stats()
		agg.Reads += ds.Reads
		agg.Writes += ds.Writes
		agg.MediaBytes += ds.MediaBytes
		agg.BusBytes += ds.BusBytes
		agg.RequestedBytes += ds.RequestedBytes
		agg.TailEvents += ds.TailEvents
		agg.BytesWritten += ds.BytesWritten
	}
	return agg
}

// RingStats sums the IO-ring counters across devices.
func (s *Store) RingStats() uring.Stats {
	var agg uring.Stats
	for _, r := range s.rings {
		rs := r.Stats()
		agg.Submitted += rs.Submitted
		agg.Completed += rs.Completed
		agg.Errors += rs.Errors
		agg.CPUTime += rs.CPUTime
		if rs.PeakInflight > agg.PeakInflight {
			agg.PeakInflight = rs.PeakInflight
		}
	}
	return agg
}

// smBase returns the device offset of table state st's stripe on device d.
func (s *Store) smBase(st *tableState, d int) int64 { return s.stripes[d][st.stripe].Off }

// smRow returns the device of row r of table state st and the row's index j
// in the device's stripe of the table.
func (s *Store) smRow(st *tableState, r int64) (dev int, j int64) {
	n := int64(s.cfg.NumDevices)
	return int(r % n), r / n
}
