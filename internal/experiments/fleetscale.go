package experiments

import (
	"fmt"
	"io"
	"runtime"
	"time"

	"sdm/internal/blockdev"
	"sdm/internal/cluster"
	"sdm/internal/core"
	"sdm/internal/serving"
	"sdm/internal/uring"
	"sdm/internal/workload"
)

// FleetScaleResult is the scale-up campaign baseline: wall-clock cost and
// allocation footprint of large metered fleets. Unlike the paper-artifact
// experiments its headline numbers are wall-clock (machine-dependent), so
// its rows ride in BENCH_<rev>.json as a warn-only trajectory — never in
// the gated set (the deterministic allocation budget lives in the gated
// "alloc" experiment instead).
type FleetScaleResult struct {
	tableResult
	// WallSeconds and AllocMB for the standard 64-replica rung.
	WallSeconds float64
	AllocMB     float64
	// P99ms is the virtual-time tail at 64 replicas (deterministic).
	P99ms float64
}

// FleetScale measures metered fleets at increasing replica counts and
// model scales: build + warm + measured run per rung, with the metrics
// plane attached so the number includes full observability cost. The
// final rung runs 64 replicas at 4x the model scale — the "full paper
// scale fits in CI" anchor enabled by shared-media replica construction.
// Virtual-time columns are seed-deterministic; wall/alloc columns profile
// the simulator itself.
func FleetScale(sc Scale) (Result, error) {
	inst, tables, err := experimentModel(sc)
	if err != nil {
		return nil, err
	}
	sc4 := sc
	sc4.ModelScale *= 4
	inst4, tables4, err := experimentModel(sc4)
	if err != nil {
		return nil, err
	}

	res := &FleetScaleResult{}
	res.id = "fleetscale"
	res.header = fmt.Sprintf("%-8s %9s %9s %9s %10s %10s %8s", "hosts", "queries", "qps", "p99(ms)", "wall(s)", "alloc(MB)", "KB/q")

	scfg := core.Config{
		Seed: sc.Seed, SMTech: blockdev.NandFlash,
		Ring: uring.Config{SGL: true}, CacheBytes: 1 << 20,
	}
	hcfg := serving.Config{Spec: serving.HWSS(), InterOp: true, Seed: sc.Seed}
	wcfg := workload.Config{Seed: sc.Seed, NumUsers: 2000, UserAlpha: 0.8}

	for _, rg := range []struct {
		label string
		hosts int
		big   bool // 4x model scale
	}{
		{"16", 16, false},
		{"64", 64, false},
		{"64x4", 64, true},
	} {
		nHosts := rg.hosts
		rinst, rtables := inst, tables
		if rg.big {
			rinst, rtables = inst4, tables4
		}
		// Per-host load held constant across rungs, so the sweep isolates
		// fleet-size (and model-scale) cost rather than saturation effects.
		qps := 75.0 * float64(nHosts)
		n := sc.Queries * nHosts / 4

		start := time.Now() //sdm:allow wallclock fleetscale measures the simulator's own wall-clock cost, not simulated time
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)

		hosts, err := cluster.HostSet(rinst, rtables, nHosts, &scfg, hcfg)
		if err != nil {
			return nil, err
		}
		fl, err := cluster.New(hosts, cluster.NewSticky(nHosts, 64), cluster.Config{Seed: sc.Seed})
		if err != nil {
			return nil, err
		}
		if err := fl.SetMetrics(cluster.MetricsConfig{}); err != nil {
			return nil, err
		}
		gen, err := workload.NewGenerator(rinst, wcfg)
		if err != nil {
			return nil, err
		}
		fl.SetGenerator(gen)
		if _, err := fl.Run(qps, n); err != nil {
			return nil, err
		}
		r, err := fl.Run(qps, n)
		if err != nil {
			return nil, err
		}
		// Exercise the render path too: the export is part of the cost a
		// metered campaign pays every window.
		if err := fl.WriteMetrics(io.Discard); err != nil {
			return nil, err
		}

		runtime.ReadMemStats(&m1)
		wall := time.Since(start).Seconds() //sdm:allow wallclock fleetscale measures the simulator's own wall-clock cost, not simulated time
		allocMB := float64(m1.TotalAlloc-m0.TotalAlloc) / (1 << 20)
		kbPerQuery := allocMB * 1024 / float64(2*n)
		res.rows = append(res.rows, fmt.Sprintf("%-8s %9d %9.0f %9.2f %10.2f %10.1f %8.1f",
			rg.label, r.Queries, r.AchievedQPS, r.Latency.P99()*1e3, wall, allocMB, kbPerQuery))
		if rg.label == "64" {
			res.WallSeconds = wall
			res.AllocMB = allocMB
			res.P99ms = r.Latency.P99() * 1e3
		}
	}
	res.notes = append(res.notes,
		"wall(s)/alloc(MB)/KB/q are wall-clock simulator cost (machine-dependent, warn-only), measured with nothing else running (sdmbench schedules this experiment exclusively); p99 is virtual-time and seed-deterministic",
		"each rung runs the full metrics plane (SetMetrics + OpenMetrics render) so the trajectory tracks observability overhead too",
		"the 64x4 rung runs 64 replicas at 4x model scale via shared-media replica construction (core.OpenReplica)")
	return res, nil
}
