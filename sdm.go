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
// fleet.ScheduleFailure, ...). Every option behind these types is one some
// program in the tree sets (the "live rule", see README "Developing"):
//
//	inst, _ := sdm.Build(sdm.M1(), 1e-5, 42) // synthetic Table 6 model
//	tables, _ := inst.Materialize()
//	storeCfg := sdm.Config{
//		SMTech: sdm.OptaneSSD,
//		Ring:   sdm.RingConfig{SGL: true},
//	}
//	store, _ := sdm.Open(inst, tables, storeCfg)
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
// front-end router over one shared Zipf user population — the
// serving-time realization of the paper's Fig. 4c sticky locality uplift
// and the measured input to fleet provisioning. A router is a weighted sum
// of named scorers from a "name=weight,..." spec (ParseScorers); NewSticky
// is "affinity=1", NewRoundRobin the empty sum. Fleet.Warm runs a fleet
// until its hit and FM-served rates settle (its steady state). HostQPS is
// one host's max QPS at a p95 latency budget (Tables 8 and 9), measured as
// a warmed fleet of one: the rate doubles from 5 QPS until a probe fails,
// then bisects geometrically to 0.5 %; a probe runs ≥ 400 queries and
// passes when it meets the budget and sustains ≥ 0.8× the offered rate:
//
//	hostCfg := sdm.HostConfig{Spec: sdm.HWSS(), InterOp: true}
//	qps, probe, _, _ := sdm.HostQPS(inst, tables, &storeCfg, hostCfg, 1, 25*time.Millisecond, 500)
//	fleet, _ := sdm.BuildFleet(inst, tables, sdm.FleetSpec{
//		Hosts: 4, Store: &storeCfg, Host: hostCfg, Router: sdm.NewSticky(4, 64),
//		Workload: sdm.WorkloadConfig{Seed: 1},
//	})
//	fleet.Warm(300)
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
	// FleetSpec describes a fleet for BuildFleet: hosts, store, router,
	// workload, and the optional adaptive, admission, trace and metrics
	// planes.
	FleetSpec = cluster.Spec
	// FleetConfig tunes a fleet run (host workers, windows, seed);
	// failure drills are armed with Fleet.ScheduleFailure.
	FleetConfig = cluster.Config
	// FleetResult is the per-host and fleet-wide outcome of a run.
	FleetResult = cluster.Result
	// Router is a user→host routing policy: a weighted sum of named scorers.
	Router = cluster.Router
)

// SLO-aware serving types: per-class token-bucket admission control.
// Queries carry classes via WorkloadConfig.SLOClasses; admission is
// installed with FleetSpec.Admit, and FleetResult.Classes carries the
// per-class tails.
type (
	// AdmitConfig is the fleet's per-class admission policy.
	AdmitConfig = cluster.AdmitConfig
	// ClassAdmit is one SLO class's token-bucket admission policy.
	ClassAdmit = cluster.ClassAdmit
)

// Observability types. Decision tracing records why each routing,
// admission, and placement decision went the way it did, merged in
// virtual-time order so a trace is bit-identical at any
// FleetConfig.HostWorkers setting: set FleetSpec.Trace, read the last
// Run's stream back with Fleet.TraceEvents /
// Fleet.TraceSummary or render it with Fleet.WriteTrace. The metrics
// plane samples func-backed instruments, which read existing counters,
// on deterministic virtual-time boundaries: set FleetSpec.Metrics, render
// with Fleet.WriteMetrics / Fleet.WriteMetricsJSONL (hosts, stores
// and adapters register their catalogs automatically).
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

// SLO-aware routing from a "name=weight,..." scorer spec, summed in order.
var (
	// ParseScorers parses a scorer spec for a fleet of the given size.
	ParseScorers = cluster.ParseScorers
	// NewWeightedRouter composes ParseScorers' result into a named router.
	NewWeightedRouter = cluster.NewWeightedRouter
)

// Adaptive-tiering types: the online control loop that re-evaluates the
// §4.6/Table-5 placement against live telemetry and migrates tables FM↔SM
// under a bandwidth cap. Stores must be opened with Config.ReserveSM;
// workloads drift via WorkloadConfig.Drift; fleets rotate their hot set
// mid-run with Fleet.ScheduleDrift.
type (
	// AdaptConfig tunes each host's adaptive-tiering control loop
	// (FleetSpec.Adapt: interval, DRAM budget, bandwidth cap,
	// granularity); AdaptConfig.Validate reports errors in it.
	AdaptConfig = adapt.Config
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

// AdapterStats sums per-host adapter counters (Fleet.Adapters).
var AdapterStats = cluster.AdapterStats

// Cluster constructors.
var (
	// BuildFleet builds the fleet a FleetSpec describes, generator
	// installed.
	BuildFleet = cluster.Build
	// NewRoundRobin routes queries uniformly over alive hosts.
	NewRoundRobin = cluster.NewRoundRobin
	// NewSticky pins users to hosts via consistent hashing (Fig. 4c).
	NewSticky = cluster.NewSticky
	// HostQPS measures one host's max QPS at a p95 latency budget.
	HostQPS = cluster.HostQPS
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

// Open loads a model into a new SDM store.
func Open(inst *Instance, tables []*Table, cfg Config) (*Store, error) {
	return core.Open(inst, tables, cfg, nil)
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
