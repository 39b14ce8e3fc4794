package experiments

import (
	"fmt"
	"time"

	"sdm/internal/blockdev"
	"sdm/internal/cache"
	"sdm/internal/core"
	"sdm/internal/embedding"
	"sdm/internal/model"
	"sdm/internal/pooledcache"
	"sdm/internal/simclock"
	"sdm/internal/workload"
)

// Pooled-cache profiling aliases (Table 3).
const (
	pooledSchemeC10    = pooledcache.SchemeC10
	pooledSchemeC10Top = pooledcache.SchemeC10Top
	pooledSchemeCP     = pooledcache.SchemeCP
)

type pooledProfile struct {
	scheme pooledcache.ProfileScheme
	order  string
}

func profileScheme(qs [][]int64, s pooledcache.ProfileScheme, seed uint64) pooledcache.ProfileResult {
	return pooledcache.Profile(qs, s, 150, seed)
}

// experimentModel derives a small but structurally faithful M1-shaped
// instance for microbenchmark-style experiments: table counts are trimmed
// so traces stay cheap, while dims, pooling factors and skews keep the
// paper's values.
func experimentModel(sc Scale) (*model.Instance, []*embedding.Table, error) {
	cfg := model.M1()
	cfg.NumUserTables = 8
	cfg.NumItemTables = 4
	cfg.ItemBatch = 8
	cfg.NumMLPLayers = 4
	cfg.AvgMLPWidth = 64
	inst, err := model.Build(cfg, clampScale(sc.ModelScale*50), sc.Seed)
	if err != nil {
		return nil, nil, err
	}
	tables, err := inst.Materialize()
	if err != nil {
		return nil, nil, err
	}
	return inst, tables, nil
}

func clampScale(s float64) float64 {
	if s > 1 {
		return 1
	}
	if s <= 0 {
		return 1e-6
	}
	return s
}

// storeRun captures the measurements of one store trace replay.
type storeRun struct {
	s             *core.Store
	store         core.Stats
	dev           blockdev.Stats
	cache         cache.Stats
	pooled        pooledcache.Stats
	meanIOLatency time.Duration
	cpuPerQuery   time.Duration
	queries       int
}

// runStoreTrace opens a store with cfg over the experiment model and
// replays a paced query trace, measuring per-query SM IO latency.
func runStoreTrace(sc Scale, cfg core.Config) (*storeRun, error) {
	inst, tables, err := experimentModel(sc)
	if err != nil {
		return nil, err
	}
	return runStoreTraceOn(sc, cfg, inst, tables)
}

// runStoreTraceOn is runStoreTrace against a caller-provided model.
func runStoreTraceOn(sc Scale, cfg core.Config, inst *model.Instance, tables []*embedding.Table) (*storeRun, error) {
	return runStoreTraceWorkload(sc, cfg, inst, tables, workload.Config{Seed: sc.Seed, NumUsers: 500})
}

// runStoreTraceWorkload is runStoreTraceOn with an explicit workload.
func runStoreTraceWorkload(sc Scale, cfg core.Config, inst *model.Instance, tables []*embedding.Table, wcfg workload.Config) (*storeRun, error) {
	s, err := core.Open(inst, tables, cfg, nil)
	if err != nil {
		return nil, err
	}
	gen, err := workload.NewGenerator(inst, wcfg)
	if err != nil {
		return nil, err
	}
	n := sc.Queries
	if n < 50 {
		n = 50
	}
	// Pace queries 1 ms apart: light load, so latency reflects the IO
	// path rather than queueing (queueing effects are measured by the
	// serving experiments).
	var ioLatSum time.Duration
	var cpuSum time.Duration
	var obuf core.OutputBuf
	now := s.LoadDone()
	for i := 0; i < n; i++ {
		issue := now + simclock.Time(time.Duration(i)*time.Millisecond)
		// The arena-backed query and the recycled outputs are both
		// consumed before the next iteration draws again.
		q := gen.NextShared()
		outs := s.OutputsFor(q, &obuf)
		res, err := s.PoolQuery(issue, q, outs)
		if err != nil {
			return nil, fmt.Errorf("query %d: %w", i, err)
		}
		ioLatSum += (res.UserIODone - issue).Duration()
		cpuSum += res.CPUTime
	}
	return &storeRun{
		s:             s,
		store:         s.Stats(),
		dev:           s.DeviceStats(),
		cache:         s.CacheStats(),
		pooled:        s.PooledStats(),
		meanIOLatency: ioLatSum / time.Duration(n),
		cpuPerQuery:   cpuSum / time.Duration(n),
		queries:       n,
	}, nil
}
