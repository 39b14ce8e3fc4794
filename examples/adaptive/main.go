// Example adaptive contrasts static and adaptive tiering under workload
// drift: identical SDM hosts serve the same non-stationary trace, a
// hot-set rotation fires mid-run, and only the adaptive hosts — telemetry,
// drift-aware re-placement, bandwidth-capped FM↔SM migration — recover
// their fast-memory hit rate. Two adaptive granularities run side by side:
// whole-table swaps, and hot-row-range migration, which reaches the same
// FM-served rate while moving a fraction of the bytes. A fourth,
// two-replica run adds fleet coordination: staggered migration windows
// under one shared bandwidth cap plus wear-aware packing against the §3
// endurance budget, with the fleet's SM write spend and projected DWPD
// utilization reported alongside.
package main

import (
	"fmt"
	"log"
	"time"

	"sdm"
)

func main() {
	// A compact model whose user tables are equal-sized, so the DRAM
	// budget fits exactly the two-table spotlight and a rotation forces
	// real migrations. Row popularity is sharply skewed and the workload
	// is spatial (hot rows cluster at each table's head), which is the
	// structure row-range migration exploits.
	cfg := sdm.M1()
	cfg.NumUserTables = 6
	cfg.NumItemTables = 2
	cfg.ItemBatch = 4
	cfg.NumMLPLayers = 4
	cfg.AvgMLPWidth = 64
	cfg.TotalBytes = 16 << 20
	inst, err := sdm.Build(cfg, 1, 42)
	if err != nil {
		log.Fatal(err)
	}
	const perTable = 1 << 20
	for i := 0; i < cfg.NumUserTables; i++ {
		inst.Tables[i].Rows = perTable / int64(inst.Tables[i].RowBytes())
		inst.Tables[i].Alpha = 1.3
		// The offline profile reflects yesterday's traffic: the phase-0
		// spotlight (tables 0, 1) profiles hottest, so the static Table-5
		// plan places exactly those in FM — right up until the rotation.
		if i < 2 {
			inst.Tables[i].PoolingFactor = 24
		} else {
			inst.Tables[i].PoolingFactor = 12
		}
	}
	tables, err := inst.Materialize()
	if err != nil {
		log.Fatal(err)
	}

	const (
		static = iota
		byTable
		byRange
		coordinated
	)
	run := func(mode int) (*sdm.FleetResult, sdm.AdaptStats) {
		nHosts := 1
		if mode == coordinated {
			nHosts = 2
		}
		scfg := sdm.Config{
			Seed:                42,
			SMTech:              sdm.NandFlash,
			Ring:                sdm.RingConfig{SGL: true},
			CacheBytes:          128 << 10,
			ReserveSM:           true,
			MigrationRangeBytes: 128 << 10,
			Placement: sdm.PlacementConfig{
				Policy:         sdm.FixedFMWithCache,
				UserTablesOnly: true,
				DRAMBudget:     perTable*2 + perTable/2,
			},
		}
		hosts, err := sdm.NewFleetHosts(inst, tables, nHosts, &scfg, sdm.HostConfig{
			Spec: sdm.HWSS(), InterOp: true,
		})
		if err != nil {
			log.Fatal(err)
		}
		var adapters []*sdm.Adapter
		if mode != static {
			gran := sdm.AdaptTables
			if mode == byRange || mode == coordinated {
				gran = sdm.AdaptRanges
			}
			acfg := sdm.AdaptConfig{
				Interval:             150 * time.Millisecond,
				BandwidthBytesPerSec: 8 << 20, // the migration bandwidth cap
				ChunkBytes:           32 << 10,
				Granularity:          gran,
				PaybackSeconds:       3,
			}
			if mode == coordinated {
				// Staggered migration windows: the replicas take turns under
				// one shared cap, and the packing greedy discounts churny
				// candidates against the shared §3 endurance budget.
				acfg.WearDaysPerSecond = 0.01
				adapters, _, err = sdm.AttachCoordinated(hosts, acfg, sdm.CoordConfig{
					Slot:                 50 * time.Millisecond,
					BandwidthBytesPerSec: 8 << 20,
				})
			} else {
				adapters, err = sdm.AttachAdaptive(hosts, acfg)
			}
			if err != nil {
				log.Fatal(err)
			}
		}
		fleet, err := sdm.NewFleet(hosts, sdm.NewRoundRobin(), sdm.FleetConfig{Seed: 42, Windows: 10})
		if err != nil {
			log.Fatal(err)
		}
		gen, err := sdm.NewGenerator(inst, sdm.WorkloadConfig{
			Seed: 42, NumUsers: 600, UserAlpha: 0.9, Spatial: true,
			Drift: sdm.DriftConfig{HotTables: 2, HotBoost: 4, ColdShrink: 0.25},
		})
		if err != nil {
			log.Fatal(err)
		}
		fleet.SetGenerator(gen)
		if _, err := fleet.Run(300, 600); err != nil { // warm + converge
			log.Fatal(err)
		}
		if err := fleet.ScheduleDrift(0.4); err != nil { // rotate mid-run
			log.Fatal(err)
		}
		res, err := fleet.Run(300, 1200)
		if err != nil {
			log.Fatal(err)
		}
		return res, sdm.AdapterStats(adapters)
	}

	staticRes, _ := run(static)
	tableRes, tableStats := run(byTable)
	rangeRes, rangeStats := run(byRange)
	coordRes, coordStats := run(coordinated)

	fmt.Printf("hot-set rotation at t=%.2fs — FM-served rate per window:\n", tableRes.DriftAt.Seconds())
	fmt.Printf("%-8s %10s %12s %12s %12s\n", "window", "static", "by-table", "by-range", "coord(2x)")
	for i := range staticRes.Windows {
		fmt.Printf("w%-7d %9.1f%% %11.1f%% %11.1f%% %11.1f%%\n", i,
			staticRes.Windows[i].FMRate*100, tableRes.Windows[i].FMRate*100,
			rangeRes.Windows[i].FMRate*100, coordRes.Windows[i].FMRate*100)
	}
	fmt.Printf("\nby-table control loop: %s\n", tableStats)
	fmt.Printf("by-range control loop: %s\n", rangeStats)
	fmt.Printf("coordinated fleet:     %s\n", coordStats)
	fmt.Printf("by-range moved %.1f%% of the by-table migration bytes (same bandwidth cap)\n",
		100*float64(rangeStats.MigratedBytes)/float64(tableStats.MigratedBytes))
	last := len(staticRes.Windows) - 1
	fmt.Printf("final-window range-served rate: %.1f%% of lookups from FM-resident ranges\n",
		rangeRes.Windows[last].RangeRate*100)
	fmt.Printf("coordinated fleet wear: %.2f MB SM writes, projected DWPD utilization %.3f\n",
		float64(coordRes.SMWriteBytes)/(1<<20), coordRes.DWPDUtil)
	fmt.Printf("static   final p99 = %.2fms\n", staticRes.Windows[last].P99*1e3)
	fmt.Printf("by-table final p99 = %.2fms\n", tableRes.Windows[last].P99*1e3)
	fmt.Printf("by-range final p99 = %.2fms\n", rangeRes.Windows[last].P99*1e3)
	fmt.Printf("coord    final p99 = %.2fms\n", coordRes.Windows[last].P99*1e3)
}
