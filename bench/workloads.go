package main

import (
	"fmt"

	"sdm/internal/adapt"
	"sdm/internal/blockdev"
	"sdm/internal/cluster"
	"sdm/internal/core"
	"sdm/internal/embedding"
	"sdm/internal/model"
	"sdm/internal/placement"
	"sdm/internal/serving"
	"sdm/internal/uring"
	"sdm/internal/workload"
	"sdm/internal/xrand"
)

// spec is one benchmark workload: a fleet shape, a traffic mix and the
// fixed amount of work its virtual-time metrics are computed over. Every
// field is a constant of the benchmark; the only run-time input is the seed.
type spec struct {
	name string
	why  string

	hosts       int
	modelScale  float64 // model.Build capacity scale
	cacheBytes  int64   // FM row cache per host
	pooledBytes int64   // pooled-embedding cache per host (0 = off)
	engineProcs bool    // core.Config.Parallelism = nproc instead of 1

	users int64
	alpha float64
	qps   float64 // base offered rate (open loop, virtual time)

	batch      int // queries per Fleet.Run
	simBatches int // measured batches the sim_* metrics cover

	scorers    string // weighted-router spec; "" selects NewSticky
	sloClasses int
	admit      string // admission spec; "" = none
	metered    bool   // SetMetrics on

	adaptive       bool // ReserveSM + coordinated range-granular tiering + drift
	updatesPerHost int  // online UpdateRow calls per host between batches

	p99LimitMs float64   // the workload's fixed latency limit
	ladder     []float64 // offered-rate rungs, as multiples of qps
	rungBatch  []int     // queries offered at each rung
}

// Each ladder is geometric (ratio √2, or 2 where the knee is far from the
// base rate) and placed so that its lowest rung passes and its top rung
// fails at the commit that added the benchmark. The exception is
// adapt-drift-writes: it serves 93 % of its lookups from FM and its hosts
// only saturate thousands of times above the base rate, where rungs short
// enough to afford put the knee anywhere between 1 and 5 million qps
// depending on the seed. Its ladder stops at 32× with every rung passing, so
// its sim_max_qps_at_slo is censored at the top rung and can only move down.
var specs = []spec{
	{
		name:  "fleet-sticky",
		why:   "64 hosts behind consistent hashing: no feedback barrier, so host execution (core, cache, pooledcache, quant) and the serial generator do the work",
		hosts: 64, modelScale: 1.5e-4, cacheBytes: 1 << 20, pooledBytes: 256 << 10,
		users: 4000, alpha: 0.8, qps: 4800,
		batch: 2000, simBatches: 40,
		p99LimitMs: 1.5,
		ladder:     []float64{6.7272, 9.5137, 13.4543, 19.0273, 26.9087, 38.0546},
		rungBatch:  []int{2000, 2000, 4000, 16000, 16000, 4000},
	},
	{
		name:  "fleet-feedback",
		why:   "16 hosts behind a six-scorer feedback router with two admitted SLO classes and metrics on: every decision takes the host barrier, so the cluster front-end does the work",
		hosts: 16, modelScale: 1.5e-4, cacheBytes: 1 << 20,
		users: 2000, alpha: 0.8, qps: 1200,
		batch: 1000, simBatches: 30,
		scorers:    "affinity=1,queue=0.4,loadbal=0.1,migavoid=1.2,wear=0.2,fmserved=0.3",
		sloClasses: 2, admit: "gold=760:24,best-effort=620:10:queue", metered: true,
		p99LimitMs: 1.5,
		ladder:     []float64{0.5, 0.7071, 1, 1.4142, 2, 2.8284},
		rungBatch:  []int{2000, 2000, 2000, 2000, 2000, 2000},
	},
	{
		name:  "host-sm-miss",
		why:   "one host, a larger model behind a 64 KiB cache and a flat user population: blockdev, uring, cache put/evict and core's parallel fan-out do the work, cluster nothing",
		hosts: 1, modelScale: 3e-4, cacheBytes: 64 << 10, engineProcs: true,
		users: 200000, alpha: 0.3, qps: 60,
		batch: 1000, simBatches: 30,
		p99LimitMs: 2.5,
		ladder:     []float64{10, 14.1421, 20, 28.2843, 40, 56.5685},
		rungBatch:  []int{4000, 4000, 4000, 4000, 4000, 4000},
	},
	{
		name:  "adapt-drift-writes",
		why:   "8 hosts re-tiering row ranges under hot-set drift with online row updates: the read-path layers also write (demotes, promotes, updates, wear) under adapt",
		hosts: 8, modelScale: 1.5e-4, cacheBytes: 1 << 20,
		users: 2000, alpha: 0.8, qps: 600,
		batch: 1000, simBatches: 30,
		scorers:  "affinity=1,queue=0.4,migavoid=1.2",
		adaptive: true, updatesPerHost: 64,
		p99LimitMs: 1.0,
		ladder:     []float64{1, 2, 4, 8, 16, 32},
		rungBatch:  []int{2000, 2000, 2000, 2000, 2000, 2000},
	},
}

func findSpec(name string) (spec, bool) {
	for _, s := range specs {
		if s.name == name {
			return s, true
		}
	}
	return spec{}, false
}

// scaled shrinks a workload to smoke size: the same code path end to end
// on a fraction of the work, for the package's own test.
func (s spec) scaled(smoke bool) spec {
	if !smoke {
		return s
	}
	if s.hosts > 8 {
		s.hosts = 8
		s.qps = s.qps * 8 / 64
	}
	s.modelScale = 3e-5
	s.batch = 80
	s.rungBatch = []int{80, 80, 80, 80, 80, 80}
	s.simBatches = 2
	s.updatesPerHost = min(s.updatesPerHost, 8)
	return s
}

// modelSeed fixes the model's table shapes. The model is part of the system
// under test, like the host count; --seed varies the traffic, the arrival
// process and the device and host RNGs, never the model, so that runs on
// different seeds measure the same system.
const modelSeed = 42

// modelConfig is every workload's model shape: M1 trimmed as in
// cmd/sdmcluster (8 user / 4 item tables, item batch 8, 4×64 MLP).
func modelConfig() model.Config {
	cfg := model.M1()
	cfg.NumUserTables = 8
	cfg.NumItemTables = 4
	cfg.ItemBatch = 8
	cfg.NumMLPLayers = 4
	cfg.AvgMLPWidth = 64
	return cfg
}

// modelFor builds and materializes the workload's model.
func modelFor(s spec) (*model.Instance, []*embedding.Table, error) {
	inst, err := model.Build(modelConfig(), s.modelScale, modelSeed)
	if err != nil {
		return nil, nil, err
	}
	tables, err := inst.Materialize()
	if err != nil {
		return nil, nil, err
	}
	return inst, tables, nil
}

func (s spec) storeConfig(inst *model.Instance, seed uint64) core.Config {
	scfg := core.Config{
		Seed: seed, SMTech: blockdev.NandFlash,
		Ring:       uring.Config{SGL: true},
		CacheBytes: s.cacheBytes, PooledCacheBytes: s.pooledBytes,
		Parallelism: 1,
	}
	if s.engineProcs {
		scfg.Parallelism = nproc()
	}
	if s.adaptive {
		scfg.ReserveSM = true
		scfg.Placement = placement.Config{
			Policy: placement.FixedFMWithCache, UserTablesOnly: true,
			DRAMBudget: inst.UserBytes() / 3,
		}
	}
	return scfg
}

func (s spec) workloadConfig(seed uint64) workload.Config {
	wcfg := workload.Config{Seed: seed, NumUsers: s.users, UserAlpha: s.alpha, SLOClasses: s.sloClasses}
	if s.adaptive {
		wcfg.Drift = workload.DriftConfig{HotTables: 2, HotItemTables: 1}
	}
	return wcfg
}

func (s spec) router() (cluster.Router, error) {
	if s.scorers == "" {
		return cluster.NewSticky(s.hosts, 64), nil
	}
	sws, err := cluster.ParseScorers(s.scorers, s.hosts)
	if err != nil {
		return nil, err
	}
	return cluster.NewWeightedRouter("weighted", sws...)
}

// fixture is one built fleet and everything the drivers need beside it.
type fixture struct {
	spec     spec
	seed     uint64
	inst     *model.Instance
	tables   []*embedding.Table
	hosts    []*serving.Host
	adapters []*adapt.Adapter
	coord    *cluster.Coordinator
	gen      *workload.Generator
	fleet    *cluster.Fleet
	upd      *xrand.RNG // online-update row picker
}

// hostSet builds the workload's hosts over an already built model, with
// adaptive tiering attached where the workload has it. Both drivers and the
// determinism check share it, so their fleets are configured identically.
func (s spec) hostSet(inst *model.Instance, tables []*embedding.Table, seed uint64) ([]*serving.Host, []*adapt.Adapter, *cluster.Coordinator, error) {
	scfg := s.storeConfig(inst, seed)
	hcfg := serving.Config{Spec: serving.HWSS(), InterOp: true, Seed: seed}
	hosts, err := cluster.HostSet(inst, tables, s.hosts, &scfg, hcfg)
	if err != nil {
		return nil, nil, nil, err
	}
	if !s.adaptive {
		return hosts, nil, nil, nil
	}
	acfg := adapt.Config{
		BandwidthBytesPerSec: 16 << 20,
		Granularity:          adapt.Ranges,
		WearDaysPerSecond:    0.01,
	}
	adapters, coord, err := cluster.AttachCoordinated(hosts, acfg, cluster.CoordConfig{BandwidthBytesPerSec: 16 << 20})
	if err != nil {
		return nil, nil, nil, err
	}
	return hosts, adapters, coord, nil
}

// newFixture builds a fleet over an already built model. trace selects the
// reference fleet's decision tracing (the traced pass reads arrival times
// and per-query latencies back from it); workers is Config.HostWorkers.
func newFixture(s spec, inst *model.Instance, tables []*embedding.Table, seed uint64, workers int) (*fixture, error) {
	hosts, adapters, coord, err := s.hostSet(inst, tables, seed)
	if err != nil {
		return nil, err
	}
	router, err := s.router()
	if err != nil {
		return nil, err
	}
	fl, err := cluster.New(hosts, router, cluster.Config{Seed: seed, HostWorkers: workers})
	if err != nil {
		return nil, err
	}
	if coord != nil {
		fl.SetCoordinator(coord)
	}
	if adapters != nil {
		fl.SetAdapters(adapters)
	}
	if s.admit != "" {
		gate, err := cluster.ParseAdmit(s.admit)
		if err != nil {
			return nil, err
		}
		if err := fl.SetAdmission(gate); err != nil {
			return nil, err
		}
	}
	if s.metered {
		if err := fl.SetMetrics(cluster.MetricsConfig{}); err != nil {
			return nil, err
		}
	}
	gen, err := workload.NewGenerator(inst, s.workloadConfig(seed))
	if err != nil {
		return nil, err
	}
	fl.SetGenerator(gen)
	return &fixture{
		spec: s, seed: seed, inst: inst, tables: tables,
		hosts: hosts, adapters: adapters, coord: coord,
		gen: gen, fleet: fl, upd: newUpdateRNG(seed),
	}, nil
}

// newUpdateRNG seeds the online-update row picker; every driver of one seed
// draws the same rows.
func newUpdateRNG(seed uint64) *xrand.RNG { return xrand.New(seed ^ 0x75706474) }

// build is the workload's whole set-up: model, materialized tables, hosts,
// fleet options and one warm-up Run. It is what setup_s times.
func build(s spec, seed uint64, workers int) (*fixture, error) {
	inst, tables, err := modelFor(s)
	if err != nil {
		return nil, fmt.Errorf("%s: model: %w", s.name, err)
	}
	fx, err := newFixture(s, inst, tables, seed, workers)
	if err != nil {
		return nil, fmt.Errorf("%s: fleet: %w", s.name, err)
	}
	if _, err := fx.runBatch(s.qps, s.batch); err != nil {
		return nil, fmt.Errorf("%s: warm-up: %w", s.name, err)
	}
	return fx, nil
}

// runBatch is one measured unit of work: arm the drift drill where the
// workload has one, offer n queries through Fleet.Run, then apply the
// workload's online row updates on every host.
func (fx *fixture) runBatch(qps float64, n int) (*cluster.Result, error) {
	if fx.spec.adaptive {
		if err := fx.fleet.ScheduleDrift(0.5); err != nil {
			return nil, err
		}
	}
	res, err := fx.fleet.Run(qps, n)
	if err != nil {
		return nil, err
	}
	ups := drawUpdates(fx.upd, fx.inst, len(fx.hosts), fx.spec.updatesPerHost)
	if _, _, err := applyUpdates(fx.hosts, fx.tables, ups); err != nil {
		return nil, err
	}
	return res, nil
}

// rowUpdate is one online row rewrite.
type rowUpdate struct {
	table int
	row   int64
}

// drawUpdates picks the rows of one round of online updates, perHost for
// each of hosts hosts, from rng.
func drawUpdates(rng *xrand.RNG, inst *model.Instance, hosts, perHost int) []rowUpdate {
	ups := make([]rowUpdate, 0, hosts*perHost)
	for i := 0; i < hosts*perHost; i++ {
		t := rng.Intn(inst.Config.NumUserTables)
		ups = append(ups, rowUpdate{t, rng.Int63n(inst.Tables[t].Rows)})
	}
	return ups
}

// applyUpdates writes ups, an equal share per host, through the §A.3 online
// path and drains them to SM. Each row is rewritten with its own stored
// bytes, so the embedding oracle stays valid while the write path (dirty
// cache entries, write-back, device writes, wear) is exercised. It returns
// the host µs spent in UpdateRow and in FlushUpdates.
func applyUpdates(hosts []*serving.Host, tables []*embedding.Table, ups []rowUpdate) (updUs, flushUs float64, err error) {
	if len(ups) == 0 {
		return 0, 0, nil
	}
	per := len(ups) / len(hosts)
	for i, h := range hosts {
		st := h.Store()
		at := h.Ready()
		t0 := now()
		for _, u := range ups[i*per : (i+1)*per] {
			val, err := tables[u.table].Row(u.row)
			if err != nil {
				return 0, 0, err
			}
			if _, err := st.UpdateRow(at, u.table, u.row, val, core.UpdateOnline); err != nil {
				return 0, 0, fmt.Errorf("update table %d row %d: %w", u.table, u.row, err)
			}
		}
		t1 := now()
		if _, err := st.FlushUpdates(at); err != nil {
			return 0, 0, fmt.Errorf("flush updates: %w", err)
		}
		updUs += float64(t1.Sub(t0).Nanoseconds()) / 1e3
		flushUs += since(t1)
	}
	return updUs, flushUs, nil
}
