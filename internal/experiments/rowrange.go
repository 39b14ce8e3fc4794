package experiments

import (
	"fmt"
	"time"

	"sdm/internal/adapt"
	"sdm/internal/cluster"
	"sdm/internal/placement"
	"sdm/internal/workload"
)

// rowRange runs the partial-table migration drill: a hot-set rotation
// fires mid-run while two adaptive fleets — one re-placing whole tables,
// one re-placing row ranges — recover under the same DRAM budget and
// migration bandwidth cap. The range fleet is additionally repeated at a
// different HostWorkers count to demonstrate the determinism contract.
// The point being made: row popularity within a table is Zipf-skewed, so
// moving hot row ranges recovers the FM-served rate as well as moving
// whole tables while migrating a fraction of the bytes — faster recovery
// under the same cap.
func rowRange(sc Scale) (*Report, error) {
	// Sharply skewed row popularity under a spatial (identity-permuted)
	// workload: each table's hot rows cluster in its head ranges — the
	// within-table structure whole-table migration cannot exploit.
	inst, tables, err := driftModel(sc, 1.4)
	if err != nil {
		return nil, err
	}
	const cappedBW = 16 << 20
	run := func(gran adapt.Granularity, workers int) (*cluster.Result, adapt.Stats, error) {
		out, err := driftDrill{
			inst: inst, tables: tables, hosts: 2, qps: 400, n: drillQueries(sc),
			place: placement.Config{Policy: placement.SMOnlyWithCache},
			acfg: &adapt.Config{
				Interval:             150 * time.Millisecond,
				DRAMBudget:           driftTableBytes*2 + driftTableBytes/2,
				BandwidthBytesPerSec: cappedBW,
				ChunkBytes:           64 << 10,
				Granularity:          gran,
				PaybackSeconds:       3,
			},
			workers: workers,
			gen:     workload.Config{Spatial: true},
		}.run(sc)
		// Migration traffic attributable to the measured (drift) run.
		pre, post := out.warm, out.stats
		delta := adapt.Stats{
			Evals:         post.Evals - pre.Evals,
			Promotions:    post.Promotions - pre.Promotions,
			Demotions:     post.Demotions - pre.Demotions,
			MigratedBytes: post.MigratedBytes - pre.MigratedBytes,
			RangeMoves:    post.RangeMoves - pre.RangeMoves,
			Aborts:        post.Aborts - pre.Aborts,
		}
		return out.res, delta, err
	}

	var (
		tableRes, rangeRes, rangeRes2   *cluster.Result
		tableStats, rangeStats, rStats2 adapt.Stats
	)
	err = inParallel(
		func() (err error) { tableRes, tableStats, err = run(adapt.Tables, 1); return },
		func() (err error) { rangeRes, rangeStats, err = run(adapt.Ranges, 1); return },
		func() (err error) { rangeRes2, rStats2, err = run(adapt.Ranges, 4); return },
	)
	if err != nil {
		return nil, err
	}

	// FM-served rates before the rotation, first window after, and final
	// window, per granularity, and the migration traffic of the measured
	// (post-rotation) run.
	tablePre, tablePost, tableFinal := driftPhases(tableRes)
	rangePre, rangePost, rangeFinal := driftPhases(rangeRes)
	tableRec := recoveryFrac(tablePre, tablePost, tableFinal)
	tableBytes, rangeBytes := tableStats.MigratedBytes, rangeStats.MigratedBytes
	// The final-window fraction of lookups served by FM-resident row
	// ranges (0 by construction in the table run).
	rangeServed := finalWindow(rangeRes).RangeRate
	deterministic := rangeRes.String() == rangeRes2.String() &&
		finalWindow(rangeRes) == finalWindow(rangeRes2) &&
		rangeStats == rStats2

	res := &Report{Header: fmt.Sprintf("%-16s %8s %8s %8s %10s %12s %8s %10s",
		"granularity", "preFM%", "postFM%", "finalFM%", "recovery%", "migrated(MB)", "moves", "rngServ%")}
	row := func(name string, pre, post, final, rec float64, bytes int64, moves int, rng float64) string {
		return fmt.Sprintf("%-16s %8.1f %8.1f %8.1f %10.1f %12.2f %8d %10.1f",
			name, pre*100, post*100, final*100, rec*100, float64(bytes)/(1<<20), moves, rng*100)
	}
	res.Rows = append(res.Rows,
		row("whole tables", tablePre, tablePost, tableFinal, tableRec,
			tableBytes, tableStats.Promotions+tableStats.Demotions, 0),
		row("row ranges", rangePre, rangePost, rangeFinal, recoveryFrac(rangePre, rangePost, rangeFinal),
			rangeBytes, rangeStats.Promotions+rangeStats.Demotions, rangeServed),
	)
	res.Rows = append(res.Rows, fmt.Sprintf(
		"post-rotation migration traffic: %.2f MB at range granularity vs %.2f MB whole-table (%.0f%%) under the same %d MB/s cap",
		float64(rangeBytes)/(1<<20), float64(tableBytes)/(1<<20),
		100*float64(rangeBytes)/float64(tableBytes), cappedBW>>20))
	res.Rows = append(res.Rows, fmt.Sprintf(
		"range run repeated at HostWorkers=4: bit-identical=%t", deterministic))
	res.Notes = append(res.Notes,
		"row popularity within a table is Zipf-skewed (spatial workload: hot rows cluster in head ranges), so most bytes of a whole-table promotion are cold",
		"the range controller packs the hot heads of several tables into the same DRAM budget, then needs a fraction of the migration bytes to chase the rotated spotlight")
	res.add("table.pre_fm", tablePre, "frac")
	res.add("table.post_fm", tablePost, "frac")
	res.add("table.final_fm", tableFinal, "frac")
	res.add("table.recovery", tableRec, "frac")
	res.add("table.migrated", float64(tableBytes), "B")
	res.add("range.post_fm", rangePost, "frac")
	res.add("range.final_fm", rangeFinal, "frac")
	res.add("range.migrated", float64(rangeBytes), "B")
	res.add("range.served_final", rangeServed, "frac")
	res.add("workers_deterministic", flag(deterministic), "bool")
	return res, nil
}
