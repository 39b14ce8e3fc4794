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

// buildModel synthesizes cfg at the given capacity scale and materializes
// its tables.
func buildModel(cfg model.Config, scale float64, seed uint64) (*model.Instance, []*embedding.Table, error) {
	inst, err := model.Build(cfg, scale, seed)
	if err != nil {
		return nil, nil, err
	}
	tables, err := inst.Materialize()
	if err != nil {
		return nil, nil, err
	}
	return inst, tables, nil
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
	return buildModel(cfg, clampScale(sc.ModelScale*50), sc.Seed)
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
	store         core.Stats
	dev           blockdev.Stats
	cache         cache.Stats
	pooled        pooledcache.Stats
	meanIOLatency time.Duration
	cpuPerQuery   time.Duration
}

// storeWorkload is the population a store trace replays unless the
// experiment names its own.
func storeWorkload(sc Scale) workload.Config {
	return workload.Config{Seed: sc.Seed, NumUsers: 500}
}

// runStoreTrace opens a store with cfg over the given model and replays a
// paced wcfg query trace, measuring per-query SM IO latency.
func runStoreTrace(sc Scale, cfg core.Config, inst *model.Instance, tables []*embedding.Table, wcfg workload.Config) (*storeRun, error) {
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
		store:         s.Stats(),
		dev:           s.DeviceStats(),
		cache:         s.CacheStats(),
		pooled:        s.PooledStats(),
		meanIOLatency: ioLatSum / time.Duration(n),
		cpuPerQuery:   cpuSum / time.Duration(n),
	}, nil
}
