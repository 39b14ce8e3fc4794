package experiments

import (
	"bytes"
	"fmt"
	"time"

	"sdm/internal/adapt"
	"sdm/internal/cluster"
	"sdm/internal/obs"
	"sdm/internal/placement"
	"sdm/internal/workload"
)

// CoordResult carries the fleet-coordination drill: the same drift drill
// recovered by a lockstep fleet (N independent adapters, every replica
// migrating at once) versus a coordinated fleet (staggered migration
// windows under one shared bandwidth cap and one shared wear budget),
// with a bandwidth-capped single host as the tail reference.
type CoordResult struct {
	tableResult

	// FM-served rates before the rotation, first window after, and final
	// window, per fleet.
	LockPre, LockPost, LockFinal    float64
	CoordPre, CoordPost, CoordFinal float64
	LockRecovery, CoordRecovery     float64

	// Peak post-rotation per-window fleet p99 and worst single query, per
	// fleet, plus the single-host bandwidth-capped reference tail.
	LockPeakP99, CoordPeakP99, SinglePeakP99 float64
	LockPeakLat, CoordPeakLat                float64

	// SM demote-write spend of the measured run (the §3 endurance cost),
	// and the projected DWPD utilization each fleet ran at.
	LockSMWrites, CoordSMWrites uint64
	LockDWPDUtil, CoordDWPDUtil float64

	// WorkersDeterministic reports whether the coordinated run repeated
	// at a different HostWorkers count was bit-identical — including its
	// rendered decision trace.
	WorkersDeterministic bool

	// Placement-decision trace counts from the coordinated run: per-eval
	// promote/demote verdicts and the deferred candidates split by reason
	// (busy = a pending move already covers it, cap = truncated by the
	// per-eval migration cap).
	PlanPromotes, PlanDemotes        int
	PlanDefers, PlanBusy, PlanCapped int
}

// tailMeanFM returns the query-weighted mean FM-served rate of the last
// quarter of a run's windows — the steady "final" rate under sustained
// rotation, where any single window may land mid-phase.
func tailMeanFM(r *cluster.Result) float64 {
	ws := r.Windows
	if len(ws) == 0 {
		return 0
	}
	start := len(ws) - len(ws)/4
	if start >= len(ws) {
		start = len(ws) - 1
	}
	var q int
	var acc float64
	for _, w := range ws[start:] {
		acc += w.FMRate * float64(w.Queries)
		q += w.Queries
	}
	if q == 0 {
		return 0
	}
	return acc / float64(q)
}

// Coord runs the fleet-coordination drill: a hot-set rotation fires
// mid-run across an N-replica fleet. The lockstep fleet reacts the naive
// way — every replica's adapter migrates immediately and unpaced, so the
// fleet spends N× the migration bandwidth at the exact moment it is
// recovering and every replica's foreground tail spikes at once. The
// coordinated fleet staggers per-replica migration windows under one
// shared bandwidth cap (at most one replica migrates at any instant) with
// a wear-aware policy ranking moves against the shared §3 endurance
// budget — range-granular moves are small enough to interleave, so the
// fleet recovers to the same FM-served rate while its post-rotation tail
// stays near the single-host bandwidth-capped reference and its SM
// demote-write spend drops.
func Coord(sc Scale) (Result, error) {
	// The rowrange drill's tables with a softer within-table row skew, so
	// each table's payback-qualifying hot head spans several ranges: the
	// spotlight set alone overflows the DRAM budget, which is what makes
	// the post-rotation re-shuffle demote as well as promote (the
	// contention the wear budget and the staggered windows exist to
	// manage).
	inst, tables, err := driftModel(sc, 1.05)
	if err != nil {
		return nil, err
	}
	const (
		hosts    = 3
		qps      = 400.0
		cappedBW = 16 << 20
	)

	// run executes the drift drill; mode selects the fleet size and how
	// the adapters are attached.
	type mode int
	const (
		single   mode = iota // 1 host at a third of the load, bandwidth-capped adapter
		lockstep             // independent unpaced adapters: the naive fleet reaction
		coord                // staggered windows + shared cap + wear budget
	)
	run := func(m mode, workers int, trace obs.Level) (*cluster.Result, adapt.Stats, []obs.Event, error) {
		acfg := &adapt.Config{
			Interval:       150 * time.Millisecond,
			DRAMBudget:     driftTableBytes + driftTableBytes/4,
			ChunkBytes:     16 << 10,
			Granularity:    adapt.Ranges,
			PaybackSeconds: 3,
		}
		d := driftDrill{
			inst: inst, tables: tables, hosts: hosts, qps: qps, n: drillQueries(sc),
			place: placement.Config{Policy: placement.SMOnlyWithCache},
			acfg:  acfg, workers: workers, trace: trace,
			// Sustained drift: the spotlight rotates periodically (roughly
			// every 800 queries — 2s of fleet traffic, so the rotation rate
			// is the same at every experiment scale), so endurance spend
			// compounds rotation after rotation — the regime the shared
			// wear budget exists for. The drill still forces one aligned
			// rotation so the post-rotation windows have a common
			// reference instant.
			gen: workload.Config{Spatial: true, Drift: workload.DriftConfig{PhaseQueries: 800}},
		}
		switch m {
		case single:
			d.hosts, d.qps = 1, qps/hosts
			acfg.BandwidthBytesPerSec = cappedBW
		case coord:
			acfg.WearDaysPerSecond = 0.005
			d.coordBW = cappedBW
		}
		out, err := d.run(sc)
		return out.res, out.stats, out.events, err
	}

	var (
		singleRes, lockRes, coordRes, coordRes2 *cluster.Result
		lockStats, coordStats, coordStats2      adapt.Stats
		coordEvents, coordEvents2               []obs.Event
	)
	err = inParallel(
		func() (err error) { singleRes, _, _, err = run(single, 1, obs.LevelOff); return },
		func() (err error) { lockRes, lockStats, _, err = run(lockstep, 1, obs.LevelOff); return },
		func() (err error) { coordRes, coordStats, coordEvents, err = run(coord, 1, obs.LevelDecisions); return },
		func() (err error) {
			coordRes2, coordStats2, coordEvents2, err = run(coord, 4, obs.LevelDecisions)
			return
		},
	)
	if err != nil {
		return nil, err
	}
	// Decision-trace fold of the coordinated run: the per-eval placement
	// verdicts behind the adapter move counts, plus the byte-identity of
	// the rendered trace across worker counts.
	renderTrace := func(events []obs.Event) string {
		var b bytes.Buffer
		if err := obs.WriteJSONL(&b, obs.LevelDecisions, events, obs.Summarize(obs.LevelDecisions, events)); err != nil {
			return err.Error()
		}
		return b.String()
	}
	coordSum := obs.Summarize(obs.LevelDecisions, coordEvents)

	res := &CoordResult{
		LockSMWrites:  lockRes.SMWriteBytes,
		CoordSMWrites: coordRes.SMWriteBytes,
		LockDWPDUtil:  lockRes.DWPDUtil,
		CoordDWPDUtil: coordRes.DWPDUtil,
	}
	res.LockPre, res.LockPost, _ = driftPhases(lockRes)
	res.CoordPre, res.CoordPost, _ = driftPhases(coordRes)
	// Under sustained rotation a single final window is timing luck
	// (it may land mid-phase); the steady "final" FM rate is the
	// query-weighted mean of the last quarter of windows.
	res.LockFinal = tailMeanFM(lockRes)
	res.CoordFinal = tailMeanFM(coordRes)
	res.LockRecovery = recoveryFrac(res.LockPre, res.LockPost, res.LockFinal)
	res.CoordRecovery = recoveryFrac(res.CoordPre, res.CoordPost, res.CoordFinal)
	res.LockPeakP99 = peakPostDriftP99(lockRes)
	res.CoordPeakP99 = peakPostDriftP99(coordRes)
	res.SinglePeakP99 = peakPostDriftP99(singleRes)
	res.LockPeakLat = peakPostDriftLat(lockRes)
	res.CoordPeakLat = peakPostDriftLat(coordRes)
	res.WorkersDeterministic = coordRes.String() == coordRes2.String() &&
		finalWindow(coordRes) == finalWindow(coordRes2) &&
		coordStats == coordStats2 &&
		renderTrace(coordEvents) == renderTrace(coordEvents2)
	res.PlanPromotes = coordSum.Promotes
	res.PlanDemotes = coordSum.Demotes
	res.PlanDefers = coordSum.Defers
	res.PlanBusy = coordSum.DeferBusy
	res.PlanCapped = coordSum.DeferCap

	res.id = "coord"
	res.header = fmt.Sprintf("%-18s %8s %8s %8s %10s %14s %12s %12s %10s",
		"fleet", "preFM%", "postFM%", "finalFM%", "recovery%", "peak p99(ms)", "peak(ms)", "smW(MB)", "dwpdUtil")
	row := func(name string, r *cluster.Result, pre, post, final, rec float64) string {
		return fmt.Sprintf("%-18s %8.1f %8.1f %8.1f %10.1f %14.2f %12.2f %12.2f %10.3f",
			name, pre*100, post*100, final*100, rec*100,
			peakPostDriftP99(r)*1e3, peakPostDriftLat(r)*1e3,
			float64(r.SMWriteBytes)/(1<<20), r.DWPDUtil)
	}
	sPre, sPost, _ := driftPhases(singleRes)
	sFinal := tailMeanFM(singleRes)
	res.rows = append(res.rows,
		row("single (capped)", singleRes, sPre, sPost, sFinal, recoveryFrac(sPre, sPost, sFinal)),
		row("lockstep fleet", lockRes, res.LockPre, res.LockPost, res.LockFinal, res.LockRecovery),
		row("coordinated fleet", coordRes, res.CoordPre, res.CoordPost, res.CoordFinal, res.CoordRecovery),
	)
	res.rows = append(res.rows, fmt.Sprintf(
		"tail: coordinated peak post-rotation p99 %.2fms vs single-host capped %.2fms (%.1fx) vs lockstep burst %.2fms",
		res.CoordPeakP99*1e3, res.SinglePeakP99*1e3, res.CoordPeakP99/res.SinglePeakP99, res.LockPeakLat*1e3))
	res.rows = append(res.rows, fmt.Sprintf(
		"wear: coordinated spent %.2f MB of SM demote writes vs lockstep %.2f MB (%.0f%%) at final FM %.1f%% vs %.1f%%",
		float64(res.CoordSMWrites)/(1<<20), float64(res.LockSMWrites)/(1<<20),
		100*float64(res.CoordSMWrites)/float64(res.LockSMWrites),
		res.CoordFinal*100, res.LockFinal*100))
	res.rows = append(res.rows, fmt.Sprintf(
		"moves: lockstep %d promotions / %d demotions (%.2f MB migrated) vs coordinated %d / %d (%.2f MB)",
		lockStats.Promotions, lockStats.Demotions, float64(lockStats.MigratedBytes)/(1<<20),
		coordStats.Promotions, coordStats.Demotions, float64(coordStats.MigratedBytes)/(1<<20)))
	res.rows = append(res.rows, fmt.Sprintf(
		"trace: coordinated policy issued %d promote / %d demote verdicts, deferred %d candidates (%d busy, %d capped by the per-eval limit)",
		res.PlanPromotes, res.PlanDemotes, res.PlanDefers, res.PlanBusy, res.PlanCapped))
	res.rows = append(res.rows, fmt.Sprintf(
		"coordinated run (result + decision trace) repeated at HostWorkers=4: bit-identical=%t", res.WorkersDeterministic))
	res.notes = append(res.notes,
		"sustained drift: the spotlight rotates periodically, so endurance spend compounds — the shared wear budget throttles what each rotation may re-shuffle",
		"lockstep: every replica's adapter reacts to the rotation at once, unpaced — the fleet-wide migration burst lands on all replicas' devices simultaneously",
		"coordinated: staggered windows keep at most one replica migrating at any instant under the shared cap, and the wear-aware policy ranks moves against the shared DWPD budget",
	)
	return res, nil
}
