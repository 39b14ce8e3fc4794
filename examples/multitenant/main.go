// Multi-tenancy (the paper's §5.3 / Tables 10-11 scenario): experimental
// models co-locate on accelerator hosts. Without SDM, DRAM capacity limits
// co-location and leaves compute idle; with SM the capacity bound lifts
// and utilization — hence fleet perf/watt — improves. This example runs
// two small models on a pair of hosts and then prints the sizing and fleet
// rooflines.
package main

import (
	"fmt"
	"log"

	"sdm"
	"sdm/internal/power"
)

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	// Two experimental models sharing one host's SDM capacity.
	for i := 0; i < 2; i++ {
		cfg := sdm.M3()
		cfg.NumUserTables = 6
		cfg.NumItemTables = 3
		cfg.ItemBatch = 8
		cfg.NumMLPLayers = 4
		cfg.AvgMLPWidth = 128
		inst, err := sdm.Build(cfg, 3e-6, uint64(10+i))
		if err != nil {
			return err
		}
		tables, err := inst.Materialize()
		if err != nil {
			return err
		}
		fleet, err := sdm.BuildFleet(inst, tables, sdm.FleetSpec{
			Hosts: 1,
			Store: &sdm.Config{
				SMTech: sdm.OptaneSSD, NumDevices: 9, // Table 10's sizing
				Ring: sdm.RingConfig{SGL: true}, CacheBytes: 4 << 20,
			},
			Host:     sdm.HostConfig{Spec: sdm.HWF(), InterOp: true},
			Router:   sdm.NewRoundRobin(),
			Fleet:    sdm.FleetConfig{Seed: uint64(30 + i)},
			Workload: sdm.WorkloadConfig{Seed: uint64(20 + i), NumUsers: 300},
		})
		if err != nil {
			return err
		}
		res, err := fleet.Run(40, 200) // low-traffic experimental model
		if err != nil {
			return err
		}
		fmt.Printf("experimental model %d on shared host: %v\n", i, res)
	}

	// Table 10: SM sizing for the full-scale M3.
	sz, err := power.Size(power.SizingInput{
		QPS: 3150, UserTables: 2000, PoolingPF: 30,
		EmbDimBytes: 512, CacheHitRate: 0.80, Device: sdm.OptaneSSD,
	})
	if err != nil {
		return err
	}
	fmt.Printf("\nM3 sizing: %.0f MIOPS cold, %.1f MIOPS sustained at 80%% hit → %d Optane SSDs (paper: 9)\n",
		sz.ColdIOPS/1e6, sz.SustainedIOPS/1e6, sz.NumSSDs)

	// Table 11: fleet power with and without SDM-enabled co-location.
	without, with, err := power.MultiTenancy(power.MultiTenancyInput{
		HostDRAMBytes:         128 << 30,
		HostSMBytes:           300 << 30,
		ModelDRAMBytes:        100 << 30,
		ModelComputeFrac:      0.09,
		BaseUtilization:       0.54,
		BasePower:             1.0,
		SDMExtraPower:         0.01,
		NonEmbeddingDRAMBytes: 28 << 30,
	})
	if err != nil {
		return err
	}
	fmt.Printf("\nwithout SDM: %d model/host, utilization %.2f, fleet power 1.00\n",
		without.ModelsPerHost, without.Utilization)
	fmt.Printf("with SDM:    %d models/host, utilization %.2f, fleet power %.2f (saving %.0f%%, paper: 29%%)\n",
		with.ModelsPerHost, with.Utilization, with.FleetPower, (1-with.FleetPower)*100)
	return nil
}
