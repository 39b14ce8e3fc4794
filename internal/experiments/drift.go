package experiments

import (
	"fmt"
	"time"

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

// driftModel builds the adaptive-regime instance: equal-sized user tables
// large enough that migrating one visibly occupies the devices, and a
// DRAM budget (chosen by the caller) that fits only the spotlight set.
// rowAlpha > 0 overrides the user tables' within-table row skew — 1.4
// (rowrange) clusters each table's hot rows in its head ranges under a
// spatial workload, 1.05 (coord, slo) widens the hot heads so the
// spotlight set alone overflows the budget; it shapes only the query
// stream, never the materialized bytes.
func driftModel(sc Scale, rowAlpha float64) (*model.Instance, []*embedding.Table, error) {
	cfg := model.M1()
	cfg.NumUserTables = 6
	cfg.NumItemTables = 2
	cfg.ItemBatch = 4
	cfg.NumMLPLayers = 4
	cfg.AvgMLPWidth = 64
	cfg.TotalBytes = 32 << 20
	inst, err := model.Build(cfg, 1, sc.Seed)
	if err != nil {
		return nil, nil, err
	}
	for i := 0; i < cfg.NumUserTables; i++ {
		inst.Tables[i].Rows = driftTableBytes / int64(inst.Tables[i].RowBytes())
		if rowAlpha > 0 {
			inst.Tables[i].Alpha = rowAlpha
		}
		// The offline profile matches yesterday's traffic: tables 0 and 1
		// (the phase-0 spotlight) carry the highest static pooling factor,
		// so the Table-5 plan puts exactly them in FM. The rotation then
		// moves the spotlight to tables the static plan has on SM.
		if i < 2 {
			inst.Tables[i].PoolingFactor = 24
		} else {
			inst.Tables[i].PoolingFactor = 12
		}
	}
	for i := cfg.NumUserTables; i < len(inst.Tables); i++ {
		inst.Tables[i].Rows = (64 << 10) / int64(inst.Tables[i].RowBytes())
	}
	tables, err := inst.Materialize()
	if err != nil {
		return nil, nil, err
	}
	return inst, tables, nil
}

// driftTableBytes is the stored size of every user table in the drill.
const driftTableBytes = 4 << 20

// driftDrill is the hot-set-rotation drill the drift, rowrange, coord and
// slo experiments share: a fleet of adaptive (or static) hosts over one
// store config is warmed for half a run, a rotation is armed a third of
// the way into the measured run, and the measured run executes.
type driftDrill struct {
	inst   *model.Instance
	tables []*embedding.Table
	// place and hosts shape the fleet: every host opens the drill store
	// (Nand behind a 192 KiB row cache, SM reserved for runtime
	// migration) under this placement.
	place placement.Config
	hosts int
	// acfg, when set, attaches a control loop to every host: independent
	// adapters, or with coordBW > 0 adapters under a fleet coordinator
	// (staggered 50 ms migration windows sharing a coordBW bytes/s cap).
	// Adapters and coordinator are surfaced to the router's View and the
	// tracer.
	acfg    *adapt.Config
	coordBW float64
	router  cluster.Router // nil: round-robin
	workers int            // cluster.Config.HostWorkers
	trace   obs.Level
	// gen is the workload; run fills in the seed, population and the
	// rotating two-table spotlight.
	gen workload.Config
	qps float64
	n   int
}

// drillRun is one drill's outcome: the measured run's result and trace,
// and the adapter counters after the warmup and after the measured run.
type drillRun struct {
	res         *cluster.Result
	warm, stats adapt.Stats
	events      []obs.Event
}

func (d driftDrill) run(sc Scale) (drillRun, error) {
	place := d.place
	place.UserTablesOnly = true
	scfg := core.Config{
		Seed: sc.Seed, SMTech: blockdev.NandFlash,
		Ring: uring.Config{SGL: true}, CacheBytes: 192 << 10,
		ReserveSM: true, MigrationRangeBytes: 256 << 10,
		Placement: place,
	}
	var coord *cluster.CoordConfig
	if d.acfg != nil && d.coordBW > 0 {
		coord = &cluster.CoordConfig{Slot: 50 * time.Millisecond, BandwidthBytesPerSec: d.coordBW}
	}
	router := d.router
	if router == nil {
		router = cluster.NewRoundRobin()
	}
	wcfg := d.gen
	wcfg.Seed, wcfg.NumUsers, wcfg.UserAlpha = sc.Seed, 800, 0.9
	wcfg.Drift.HotTables, wcfg.Drift.HotBoost, wcfg.Drift.ColdShrink = 2, 4, 0.25
	fl, err := cluster.Build(d.inst, d.tables, cluster.Spec{
		Hosts: d.hosts, Store: &scfg, Host: serving.Config{Spec: serving.HWSS(), InterOp: true},
		Router: router, Fleet: cluster.Config{Seed: sc.Seed, Windows: 16, HostWorkers: d.workers},
		Workload: wcfg, Adapt: d.acfg, Coord: coord, Trace: obs.Config{Level: d.trace},
	})
	if err != nil {
		return drillRun{}, err
	}
	// Warmup pass: caches fill and the controllers converge on the
	// pre-rotation spotlight. The drills keep a fixed count instead of
	// Fleet.Warm: coord and slo rotate the spotlight every 800 queries
	// (PhaseQueries), so their rates have no steady state to settle on,
	// and TestCoord's wear budget is calibrated to this warm-up's length.
	if _, err := fl.Run(d.qps, d.n/2); err != nil {
		return drillRun{}, err
	}
	out := drillRun{warm: cluster.AdapterStats(fl.Adapters())}
	if err := fl.ScheduleDrift(1.0 / 3); err != nil {
		return drillRun{}, err
	}
	if out.res, err = fl.Run(d.qps, d.n); err != nil {
		return drillRun{}, err
	}
	out.stats, out.events = cluster.AdapterStats(fl.Adapters()), fl.TraceEvents()
	return out, nil
}

// drillQueries is the measured-run length of every drift drill.
func drillQueries(sc Scale) int {
	return max(sc.Queries*8, 1600)
}

// drift runs the adaptive-tiering drill: a hot-set rotation fires mid-run
// while a static host keeps its offline Table-5 placement and an adaptive
// host (internal/adapt) re-places and migrates under a bandwidth cap. A
// third, unpaced adaptive run shows what the cap buys: without it the
// migration burst lands on the devices at once and the foreground tail
// pays for it.
func drift(sc Scale) (*Report, error) {
	inst, tables, err := driftModel(sc, 0)
	if err != nil {
		return nil, err
	}
	const cappedBW = 16 << 20 // bytes/s of migration IO
	run := func(bw float64, adaptive bool) (*cluster.Result, adapt.Stats, error) {
		d := driftDrill{
			inst: inst, tables: tables, hosts: 1, qps: 400, n: drillQueries(sc),
			place: placement.Config{
				Policy:     placement.FixedFMWithCache,
				DRAMBudget: driftTableBytes*2 + driftTableBytes/2,
			},
		}
		if adaptive {
			d.acfg = &adapt.Config{
				Interval:             150 * time.Millisecond,
				BandwidthBytesPerSec: bw,
				ChunkBytes:           64 << 10,
			}
		}
		out, err := d.run(sc)
		return out.res, out.stats, err
	}

	var (
		static, capped, unpaced *cluster.Result
		cappedStats             adapt.Stats
	)
	err = inParallel(
		func() (err error) { static, _, err = run(0, false); return },
		func() (err error) { capped, cappedStats, err = run(cappedBW, true); return },
		func() (err error) { unpaced, _, err = run(0, true); return },
	)
	if err != nil {
		return nil, err
	}

	// FM-served rates in the window before the rotation, the first window
	// after it, and the final window of the run, with the recovered share
	// of the drop.
	sPre, sPost, sFinal := driftPhases(static)
	aPre, aPost, aFinal := driftPhases(capped)
	sRec, aRec := recoveryFrac(sPre, sPost, sFinal), recoveryFrac(aPre, aPost, aFinal)
	// Peak per-window foreground p99 after the rotation, and the peak
	// single-query latency — the burst an unpaced migration dump spikes
	// and the cap bounds.
	cappedP99, unpacedP99 := peakPostDriftP99(capped), peakPostDriftP99(unpaced)
	cappedLat, unpacedLat := peakPostDriftLat(capped), peakPostDriftLat(unpaced)
	st := cappedStats

	res := &Report{Header: fmt.Sprintf("%-18s %8s %8s %8s %10s %14s %12s %12s",
		"host", "preFM%", "postFM%", "finalFM%", "recovery%", "peak p99(ms)", "p999(ms)", "peak(ms)")}
	row := func(name string, r *cluster.Result, pre, post, final, rec float64) string {
		return fmt.Sprintf("%-18s %8.1f %8.1f %8.1f %10.1f %14.2f %12.2f %12.2f",
			name, pre*100, post*100, final*100, rec*100,
			peakPostDriftP99(r)*1e3, r.Latency.P999()*1e3, peakPostDriftLat(r)*1e3)
	}
	res.Rows = append(res.Rows,
		row("static", static, sPre, sPost, sFinal, sRec),
		row("adaptive (capped)", capped, aPre, aPost, aFinal, aRec),
		row("adaptive (unpaced)", unpaced, driftPhase1(unpaced), driftPhase2(unpaced), finalWindow(unpaced).FMRate,
			recoveryFrac(driftPhase1(unpaced), driftPhase2(unpaced), finalWindow(unpaced).FMRate)))
	res.Rows = append(res.Rows,
		fmt.Sprintf("rotation at t=%.2fs; adaptive migrated %d tables (%d promotions, %d demotions, %.1f MB) under a %d MB/s cap",
			capped.DriftAt.Seconds(), st.Promotions+st.Demotions, st.Promotions, st.Demotions,
			float64(st.MigratedBytes)/(1<<20), cappedBW>>20))
	res.Rows = append(res.Rows,
		fmt.Sprintf("migration tail: peak post-rotation query latency %.2fms capped vs %.2fms unpaced (the cap bounds the foreground penalty)",
			cappedLat*1e3, unpacedLat*1e3))
	res.Notes = append(res.Notes,
		"FM% counts lookups served from fast memory (row-cache hits + FM-direct); promoting a hot table recovers it even though those lookups stop being cache hits",
		"static placement keeps yesterday's spotlight in FM after the rotation, so its FM% stays degraded; the adaptive host re-places within the run")
	res.add("static.pre_fm", sPre, "frac")
	res.add("static.post_fm", sPost, "frac")
	res.add("static.final_fm", sFinal, "frac")
	res.add("static.recovery", sRec, "frac")
	res.add("adapt.pre_fm", aPre, "frac")
	res.add("adapt.post_fm", aPost, "frac")
	res.add("adapt.final_fm", aFinal, "frac")
	res.add("adapt.recovery", aRec, "frac")
	res.add("capped.peak_p99", cappedP99, "s")
	res.add("unpaced.peak_p99", unpacedP99, "s")
	res.add("capped.peak_lat", cappedLat, "s")
	res.add("unpaced.peak_lat", unpacedLat, "s")
	res.add("promotions", float64(st.Promotions), "count")
	res.add("demotions", float64(st.Demotions), "count")
	res.add("migrated", float64(st.MigratedBytes), "B")
	return res, nil
}

// driftPhases extracts the pre-rotation, first post-rotation and final
// window FM rates of a drill run.
func driftPhases(r *cluster.Result) (pre, post, final float64) {
	return driftPhase1(r), driftPhase2(r), finalWindow(r).FMRate
}

// driftPhase1 returns the FM rate of the last window ending at or before
// the rotation.
func driftPhase1(r *cluster.Result) float64 {
	out := 0.0
	for _, w := range r.Windows {
		if w.End <= r.DriftAt && w.Queries > 0 {
			out = w.FMRate
		}
	}
	return out
}

// driftPhase2 returns the FM rate of the first window starting at or
// after the rotation.
func driftPhase2(r *cluster.Result) float64 {
	for _, w := range r.Windows {
		if w.Start >= r.DriftAt && w.Queries > 0 {
			return w.FMRate
		}
	}
	return 0
}

// finalWindow returns the last non-empty window.
func finalWindow(r *cluster.Result) cluster.WindowStat {
	var out cluster.WindowStat
	for _, w := range r.Windows {
		if w.Queries > 0 {
			out = w
		}
	}
	return out
}

// peakPostDriftP99 returns the worst per-window p99 at or after the
// rotation — where migration interference shows up.
func peakPostDriftP99(r *cluster.Result) float64 {
	out := 0.0
	for _, w := range r.Windows {
		if w.Start >= r.DriftAt && w.P99 > out {
			out = w.P99
		}
	}
	return out
}

// peakPostDriftLat returns the worst single-query latency at or after the
// rotation — an unpaced migration burst is short enough that window p99
// dilutes it, but the slowest query shows the full dump.
func peakPostDriftLat(r *cluster.Result) float64 {
	out := 0.0
	for _, w := range r.Windows {
		if w.Start >= r.DriftAt && w.MaxLat > out {
			out = w.MaxLat
		}
	}
	return out
}

// recoveryFrac returns how much of the drop (pre − post) the final window
// recovered.
func recoveryFrac(pre, post, final float64) float64 {
	drop := pre - post
	if drop <= 0 {
		return 0
	}
	rec := (final - post) / drop
	if rec < 0 {
		return 0
	}
	return rec
}
