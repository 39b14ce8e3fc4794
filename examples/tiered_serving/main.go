// Tiered serving (the paper's §5.1 / Table 8 scenario): serve an M1-shaped
// model either from DRAM on a large dual-socket host, or from Nand Flash
// through SDM on a small single-socket host, and compare sustainable QPS
// at a p95 latency budget plus the fleet-level power implication.
package main

import (
	"fmt"
	"log"
	"time"

	"sdm"
	"sdm/internal/power"
)

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	// M1 shape with trimmed table counts; the 31-layer/300-wide dense
	// stack is kept so CPU hosts are compute-bound like the paper's.
	cfg := sdm.M1()
	cfg.NumUserTables = 8
	cfg.NumItemTables = 4
	cfg.ItemBatch = 16
	inst, err := sdm.Build(cfg, 1e-4, 1)
	if err != nil {
		return err
	}
	tables, err := inst.Materialize()
	if err != nil {
		return err
	}
	const budget = 25 * time.Millisecond

	// Baseline: every table flat in DRAM on HW-L.
	baseQPS, baseRes, err := measure(inst, tables, nil, sdm.HWL(), budget)
	if err != nil {
		return err
	}
	fmt.Printf("HW-L  (DRAM only):  max qps %6.0f  %v\n", baseQPS, baseRes)

	// SDM: user tables on 2x Nand Flash behind the FM cache, HW-SS host.
	scfg := &sdm.Config{
		SMTech:     sdm.NandFlash,
		Ring:       sdm.RingConfig{SGL: true},
		CacheBytes: 32 << 20,
	}
	sdmQPS, sdmRes, err := measure(inst, tables, scfg, sdm.HWSS(), budget)
	if err != nil {
		return err
	}
	fmt.Printf("HW-SS (SDM, Nand):  max qps %6.0f  %v\n", sdmQPS, sdmRes)

	// Fleet arithmetic at a fixed total demand (Eq. 5-7).
	total := baseQPS * 1200
	base, err := power.Provision(power.Scenario{Name: "HW-L", QPSPerHost: baseQPS, HostPower: 1.0}, total)
	if err != nil {
		return err
	}
	tiered, err := power.Provision(power.Scenario{Name: "HW-SS+SDM", QPSPerHost: sdmQPS, HostPower: 0.4}, total)
	if err != nil {
		return err
	}
	fmt.Printf("\nfleet at %.0f total QPS:\n", total)
	fmt.Printf("  HW-L:       %5d hosts, power %6.0f\n", base.Hosts, base.TotalPower)
	fmt.Printf("  HW-SS+SDM:  %5d hosts, power %6.0f\n", tiered.Hosts, tiered.TotalPower)
	fmt.Printf("  power saving: %.0f%% (paper: 20%%)\n", power.Savings(base, tiered)*100)
	return nil
}

// measure serves the model on one host — a fleet of one — and returns its
// max QPS at a p95 latency budget with the result of that probe.
func measure(inst *sdm.Instance, tables []*sdm.Table, scfg *sdm.Config, sku sdm.HostSpec, budget time.Duration) (float64, *sdm.FleetResult, error) {
	hosts, err := sdm.NewFleetHosts(inst, tables, 1, scfg, sdm.HostConfig{Spec: sku, InterOp: true})
	if err != nil {
		return 0, nil, err
	}
	fleet, err := sdm.NewFleet(hosts, sdm.NewRoundRobin(), sdm.FleetConfig{Seed: 2})
	if err != nil {
		return 0, nil, err
	}
	gen, err := sdm.NewGenerator(inst, sdm.WorkloadConfig{Seed: 2, NumUsers: 1000})
	if err != nil {
		return 0, nil, err
	}
	fleet.SetGenerator(gen)
	// Warm the caches, then search for max QPS at the latency budget.
	if _, err := fleet.Run(50, 300); err != nil {
		return 0, nil, err
	}
	return fleet.MaxQPSAtLatency(0.95, budget, 5, 100000, 250)
}
