// Package sdm is the public API of the Software Defined Memory (SDM)
// library — a Go reproduction of "Supporting Massive DLRM Inference through
// Software Defined Memory" (Ardestani et al., ICDCS 2022,
// arXiv:2110.11489). It serves massive DLRM embedding tables from a tiered
// memory hierarchy: hot rows live in a unified FM (DRAM) row cache while
// capacity resides on simulated Storage Class Memory (Nand Flash, Optane
// SSD, ZSSD, DIMM/CXL 3DXP) reached through an io_uring-style async IO
// path with NVMe SGL sub-block reads.
//
// The facade re-exports the names the examples/ programs and this
// package's tests use, so downstream users import one package; everything
// else is reached through the values these return (store.PoolOps,
// fleet.SetAdmission, ...). Every option behind these types is one some
// program in the tree sets (the "live rule", see README "Developing"):
//
//	inst, _ := sdm.Build(sdm.M1(), 1e-5, 42) // synthetic Table 6 model
//	tables, _ := inst.Materialize()
//	storeCfg := sdm.Config{
//		SMTech: sdm.OptaneSSD,
//		Ring:   sdm.RingConfig{SGL: true},
//	}
//	store, _ := sdm.Open(inst, tables, storeCfg, nil) // the clock is ignored, see Clock
//	gen, _ := sdm.NewGenerator(inst, sdm.WorkloadConfig{Seed: 1})
//	q := gen.Next()
//	outs := store.AllocOutputs(q)
//	res, _ := store.PoolQuery(store.LoadDone(), q, outs)
//
// A query's table operators execute on the goroutine that issues it, in two
// phases: a functional phase pools every op, then an ordered replay books
// the SM reads' timing and folds the counters, so a batch that fails books
// nothing. Config.Parallelism is ignored; a fleet's cores go to its hosts
// (FleetConfig.HostWorkers).
//
// Serving runs through the cluster subsystem: N simulated hosts behind a
// front-end router with pluggable user→host policies (round-robin,
// least-outstanding, sticky consistent hashing) over one shared Zipf user
// population — the serving-time realization of the paper's Fig. 4c sticky
// locality uplift and the measured input to fleet provisioning. A single
// host is a fleet of one, and Fleet.MaxQPSAtLatency is its max QPS at a
// latency budget (Tables 8 and 9):
//
//	hostCfg := sdm.HostConfig{Spec: sdm.HWSS(), InterOp: true}
//	hosts, _ := sdm.NewFleetHosts(inst, tables, 4, &storeCfg, hostCfg)
//	fleet, _ := sdm.NewFleet(hosts, sdm.NewSticky(4, 64), sdm.FleetConfig{})
//	fleet.SetGenerator(gen)
//	fres, _ := fleet.Run(300, 2000)
//
// See the examples/ directory for runnable end-to-end scenarios,
// cmd/sdmbench for the experiment harness that regenerates every table and
// figure of the paper's evaluation, and cmd/sdmcluster for the fleet
// simulator CLI.
package sdm

import (
	"sdm/internal/adapt"
	"sdm/internal/blockdev"
	"sdm/internal/cluster"
	"sdm/internal/core"
	"sdm/internal/embedding"
	"sdm/internal/model"
	"sdm/internal/obs"
	"sdm/internal/placement"
	"sdm/internal/serving"
	"sdm/internal/simclock"
	"sdm/internal/uring"
	"sdm/internal/workload"
)

// Core store types.
type (
	// Config tunes an SDM Store (every §4 Tuning API knob).
	Config = core.Config
	// Store is the tiered embedding store — the paper's contribution.
	Store = core.Store
	// RingConfig tunes the io_uring-style fast IO path (§4.1).
	RingConfig = uring.Config
	// Clock is an ignored placeholder (see simclock.Clock): virtual time is
	// the simclock.Time values calls take and return, never a global clock.
	Clock = simclock.Clock
)

// Model types.
type (
	// ModelConfig is a DLRM model configuration (Table 6 shape).
	ModelConfig = model.Config
	// Instance is a concrete synthetic model.
	Instance = model.Instance
	// Table is a materialized embedding table.
	Table = embedding.Table
)

// Workload types.
type (
	// WorkloadConfig tunes the query generator.
	WorkloadConfig = workload.Config
	// Generator produces inference queries.
	Generator = workload.Generator
)

// Placement and serving types.
type (
	// PlacementConfig selects the §4.6 policy, DRAM budget and deny-list.
	PlacementConfig = placement.Config
	// HostSpec is a serving host SKU (Table 7).
	HostSpec = serving.HostSpec
	// HostConfig tunes a simulated host.
	HostConfig = serving.Config
	// Technology is an SM technology (Table 1).
	Technology = blockdev.Technology
	// TechSpec carries Table 1 parameters.
	TechSpec = blockdev.TechSpec
)

// Cluster types (the multi-host fleet simulator).
type (
	// FleetConfig tunes a fleet run (host workers, windows, seed);
	// failure drills are armed with Fleet.ScheduleFailure.
	FleetConfig = cluster.Config
	// FleetResult is the per-host and fleet-wide outcome of a run.
	FleetResult = cluster.Result
	// Router is a pluggable user→host routing policy.
	Router = cluster.Router
)

// SLO-aware serving types: composable routing scorers and per-class
// token-bucket admission control. Queries carry classes via
// WorkloadConfig.SLOClasses; admission is installed with
// Fleet.SetAdmission, and FleetResult.Classes carries the per-class tails.
type (
	// ScorerWeight pairs a scorer with its weight in a weighted router.
	ScorerWeight = cluster.ScorerWeight
	// AdmitConfig is the fleet's per-class admission policy.
	AdmitConfig = cluster.AdmitConfig
	// ClassAdmit is one SLO class's token-bucket admission policy.
	ClassAdmit = cluster.ClassAdmit
)

// Observability types. Decision tracing records why each routing,
// admission, and placement decision went the way it did, merged in
// virtual-time order so a trace is bit-identical at any
// FleetConfig.HostWorkers setting: install with Fleet.SetTrace before
// Run, read the last Run's stream back with Fleet.TraceEvents /
// Fleet.TraceSummary or render it with Fleet.WriteTrace. The metrics
// plane samples typed instruments into virtual-time series on
// deterministic boundaries: install with Fleet.SetMetrics, render with
// Fleet.WriteMetrics / Fleet.WriteMetricsJSONL (hosts, stores and
// adapters register their catalogs automatically).
type (
	// TraceConfig tunes a fleet's decision tracing (level, top-k
	// rejected route alternatives to record and re-score).
	TraceConfig = obs.Config
	// TraceLevel selects collection and rendering depth.
	TraceLevel = obs.Level
	// MetricsConfig tunes the fleet metrics plane (live sampling width).
	MetricsConfig = cluster.MetricsConfig
)

// The two ends of the trace-level range: Off is the zero-overhead
// default; Counterfactual renders every decision row and re-scores each
// route's rejected alternatives at completion time.
const (
	TraceOff            = obs.LevelOff
	TraceCounterfactual = obs.LevelCounterfactual
)

// SLO-aware serving constructors.
var (
	// NewWeightedRouter composes a router from weighted scorers.
	NewWeightedRouter = cluster.NewWeightedRouter
	// ParseScorers parses a "name=weight,..." scorer spec.
	ParseScorers = cluster.ParseScorers
	// NewAffinityScorer scores the sticky ring owner 1, others 0.
	NewAffinityScorer = cluster.NewAffinityScorer
	// NewQueueScorer scores hosts by inverse outstanding-queue depth.
	NewQueueScorer = cluster.NewQueueScorer
)

// Adaptive-tiering types: the online control loop that re-evaluates the
// §4.6/Table-5 placement against live telemetry and migrates tables FM↔SM
// under a bandwidth cap. Stores must be opened with Config.ReserveSM;
// workloads drift via WorkloadConfig.Drift; fleets rotate their hot set
// mid-run with Fleet.ScheduleDrift.
type (
	// AdaptConfig tunes an Adapter (interval, DRAM budget, bandwidth cap,
	// granularity); AdaptConfig.Validate reports errors in it.
	AdaptConfig = adapt.Config
	// Adapter is the per-host adaptive-tiering control loop.
	Adapter = adapt.Adapter
	// AdaptStats counts evaluations, migrations and migrated bytes.
	AdaptStats = adapt.Stats
	// DriftConfig makes a workload non-stationary (hot-set rotation on
	// both the user and item sides).
	DriftConfig = workload.DriftConfig
	// CoordConfig tunes a fleet migration coordinator (slot width, shared
	// bandwidth cap; the shared per-cycle wear budget is derived from the
	// devices' endurance when AdaptConfig.WearDaysPerSecond is set).
	CoordConfig = cluster.CoordConfig
)

// Adaptive-tiering constructors.
var (
	// AttachAdaptive installs one Adapter per SDM-backed fleet host.
	AttachAdaptive = cluster.AttachAdaptive
	// AttachCoordinated is AttachAdaptive plus staggered fleet migration
	// windows under one shared bandwidth cap and wear budget.
	AttachCoordinated = cluster.AttachCoordinated
	// AdapterStats sums per-host adapter counters.
	AdapterStats = cluster.AdapterStats
)

// Cluster constructors.
var (
	// NewFleet assembles a fleet from prebuilt hosts and a router.
	NewFleet = cluster.New
	// NewFleetHosts builds n identical hosts over shared tables.
	NewFleetHosts = cluster.HostSet
	// NewRoundRobin routes queries uniformly over alive hosts.
	NewRoundRobin = cluster.NewRoundRobin
	// NewSticky pins users to hosts via consistent hashing (Fig. 4c).
	NewSticky = cluster.NewSticky
)

// SM technologies (Table 1).
const (
	NandFlash = blockdev.NandFlash
	OptaneSSD = blockdev.OptaneSSD
)

// Adaptive re-placement granularities: whole tables (the Table-5 greedy
// verbatim) or hot row ranges (partial-table migration — move rows, not
// tables).
const (
	AdaptTables = adapt.Tables
	AdaptRanges = adapt.Ranges
)

// FixedFMWithCache is the Table 5 placement policy that pins a fixed FM
// budget of tables and serves the rest from SM behind the row cache.
const FixedFMWithCache = placement.FixedFMWithCache

// M1 returns the Table 6 configuration of model M1 (143 GB ranking model).
func M1() ModelConfig { return model.M1() }

// M2 returns the Table 6 configuration of model M2 (150 GB, accelerator).
func M2() ModelConfig { return model.M2() }

// M3 returns the Table 6 configuration of the future model M3 (1 TB).
func M3() ModelConfig { return model.M3() }

// Build synthesizes a model instance at the given capacity scale.
func Build(cfg ModelConfig, scale float64, seed uint64) (*Instance, error) {
	return model.Build(cfg, scale, seed)
}

// Open loads a model into a new SDM store. clock is ignored (see Clock).
func Open(inst *Instance, tables []*Table, cfg Config, clock *Clock) (*Store, error) {
	return core.Open(inst, tables, cfg, clock)
}

// NewGenerator builds a query generator for a model instance.
func NewGenerator(inst *Instance, cfg WorkloadConfig) (*Generator, error) {
	return workload.NewGenerator(inst, cfg)
}

// Spec returns the Table 1 catalog entry for an SM technology.
func Spec(t Technology) TechSpec { return blockdev.Spec(t) }

// Catalog returns all Table 1 technologies.
func Catalog() []TechSpec { return blockdev.Catalog() }

// Host SKUs of Table 7.
var (
	HWL  = serving.HWL
	HWS  = serving.HWS
	HWSS = serving.HWSS
	HWAN = serving.HWAN
	HWAO = serving.HWAO
	HWF  = serving.HWF
)
