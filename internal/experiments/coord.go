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

// coord runs the fleet-coordination drill: a hot-set rotation fires
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
func coord(sc Scale) (*Report, error) {
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

	// FM-served rates before the rotation and first window after, per
	// fleet. Under sustained rotation a single final window is timing luck
	// (it may land mid-phase); the steady "final" FM rate is the
	// query-weighted mean of the last quarter of windows.
	lockPre, lockPost, _ := driftPhases(lockRes)
	coordPre, coordPost, _ := driftPhases(coordRes)
	lockFinal, coordFinal := tailMeanFM(lockRes), tailMeanFM(coordRes)
	// Peak post-rotation per-window fleet p99 and worst single query, per
	// fleet, plus the single-host bandwidth-capped reference tail.
	lockP99, coordP99, singleP99 := peakPostDriftP99(lockRes), peakPostDriftP99(coordRes), peakPostDriftP99(singleRes)
	lockLat, coordLat := peakPostDriftLat(lockRes), peakPostDriftLat(coordRes)
	// Whether the coordinated run repeated at a different HostWorkers count
	// was bit-identical — including its rendered decision trace.
	deterministic := coordRes.String() == coordRes2.String() &&
		finalWindow(coordRes) == finalWindow(coordRes2) &&
		coordStats == coordStats2 &&
		renderTrace(coordEvents) == renderTrace(coordEvents2)

	res := &Report{Header: fmt.Sprintf("%-18s %8s %8s %8s %10s %14s %12s %12s %10s",
		"fleet", "preFM%", "postFM%", "finalFM%", "recovery%", "peak p99(ms)", "peak(ms)", "smW(MB)", "dwpdUtil")}
	row := func(name string, r *cluster.Result, pre, post, final float64) string {
		return fmt.Sprintf("%-18s %8.1f %8.1f %8.1f %10.1f %14.2f %12.2f %12.2f %10.3f",
			name, pre*100, post*100, final*100, recoveryFrac(pre, post, final)*100,
			peakPostDriftP99(r)*1e3, peakPostDriftLat(r)*1e3,
			float64(r.SMWriteBytes)/(1<<20), r.DWPDUtil)
	}
	sPre, sPost, _ := driftPhases(singleRes)
	res.Rows = append(res.Rows,
		row("single (capped)", singleRes, sPre, sPost, tailMeanFM(singleRes)),
		row("lockstep fleet", lockRes, lockPre, lockPost, lockFinal),
		row("coordinated fleet", coordRes, coordPre, coordPost, coordFinal),
	)
	res.Rows = append(res.Rows, fmt.Sprintf(
		"tail: coordinated peak post-rotation p99 %.2fms vs single-host capped %.2fms (%.1fx) vs lockstep burst %.2fms",
		coordP99*1e3, singleP99*1e3, coordP99/singleP99, lockLat*1e3))
	res.Rows = append(res.Rows, fmt.Sprintf(
		"wear: coordinated spent %.2f MB of SM demote writes vs lockstep %.2f MB (%.0f%%) at final FM %.1f%% vs %.1f%%",
		float64(coordRes.SMWriteBytes)/(1<<20), float64(lockRes.SMWriteBytes)/(1<<20),
		100*float64(coordRes.SMWriteBytes)/float64(lockRes.SMWriteBytes),
		coordFinal*100, lockFinal*100))
	res.Rows = append(res.Rows, fmt.Sprintf(
		"moves: lockstep %d promotions / %d demotions (%.2f MB migrated) vs coordinated %d / %d (%.2f MB)",
		lockStats.Promotions, lockStats.Demotions, float64(lockStats.MigratedBytes)/(1<<20),
		coordStats.Promotions, coordStats.Demotions, float64(coordStats.MigratedBytes)/(1<<20)))
	// The coordinated run's placement-decision trace: per-eval
	// promote/demote verdicts and the deferred candidates split by reason
	// (busy = a pending move already covers it, cap = truncated by the
	// per-eval migration cap).
	res.Rows = append(res.Rows, fmt.Sprintf(
		"trace: coordinated policy issued %d promote / %d demote verdicts, deferred %d candidates (%d busy, %d capped by the per-eval limit)",
		coordSum.Promotes, coordSum.Demotes, coordSum.Defers, coordSum.DeferBusy, coordSum.DeferCap))
	res.Rows = append(res.Rows, fmt.Sprintf(
		"coordinated run (result + decision trace) repeated at HostWorkers=4: bit-identical=%t", deterministic))
	res.Notes = append(res.Notes,
		"sustained drift: the spotlight rotates periodically, so endurance spend compounds — the shared wear budget throttles what each rotation may re-shuffle",
		"lockstep: every replica's adapter reacts to the rotation at once, unpaced — the fleet-wide migration burst lands on all replicas' devices simultaneously",
		"coordinated: staggered windows keep at most one replica migrating at any instant under the shared cap, and the wear-aware policy ranks moves against the shared DWPD budget",
	)
	// SM demote-write spend of the measured run (the §3 endurance cost),
	// and the projected DWPD utilization each fleet ran at.
	res.add("lock.sm_writes", float64(lockRes.SMWriteBytes), "B")
	res.add("coord.sm_writes", float64(coordRes.SMWriteBytes), "B")
	res.add("lock.dwpd_util", lockRes.DWPDUtil, "ratio")
	res.add("coord.dwpd_util", coordRes.DWPDUtil, "ratio")
	res.add("lock.final_fm", lockFinal, "frac")
	res.add("coord.final_fm", coordFinal, "frac")
	res.add("single.peak_p99", singleP99, "s")
	res.add("lock.peak_p99", lockP99, "s")
	res.add("coord.peak_p99", coordP99, "s")
	res.add("lock.peak_lat", lockLat, "s")
	res.add("coord.peak_lat", coordLat, "s")
	res.add("workers_deterministic", flag(deterministic), "bool")
	return res, nil
}
