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

	// Each host's max QPS at the p95 budget (seed 2, probes of 400 queries
	// after a warm-up that runs until the host's rates settle). Baseline:
	// every table flat in DRAM on HW-L.
	baseQPS, baseRes, _, err := sdm.HostQPS(inst, tables, nil, sdm.HostConfig{Spec: sdm.HWL(), InterOp: true}, 2, budget, 500)
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
	sdmQPS, sdmRes, _, err := sdm.HostQPS(inst, tables, scfg, sdm.HostConfig{Spec: sdm.HWSS(), InterOp: true}, 2, budget, 500)
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
