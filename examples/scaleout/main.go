// Avoiding scale-out (the paper's §5.2 / Table 9 scenario): an M2-shaped
// model on accelerator hosts whose user embeddings do not fit host DRAM.
// Three deployments compete: scale-out to remote shards, SDM on Nand
// Flash, and SDM on Optane SSD. Optane keeps the user path off the
// critical path (Eq. 3) and avoids the scale-out fleet entirely.
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
	cfg := sdm.M2()
	cfg.NumUserTables = 10
	cfg.NumItemTables = 5
	cfg.ItemBatch = 16
	cfg.NumMLPLayers = 4
	cfg.AvgMLPWidth = 128
	inst, err := sdm.Build(cfg, 1e-4, 3)
	if err != nil {
		return err
	}
	tables, err := inst.Materialize()
	if err != nil {
		return err
	}
	const budget = 20 * time.Millisecond

	// Each deployment's host: max QPS at the p95 budget, seed 4, 400-query probes.
	scaleOutQPS, _, _, err := sdm.HostQPS(inst, tables, nil,
		sdm.HostConfig{Spec: sdm.HWAN(), InterOp: true, RemoteUserPath: true}, 4, budget, 500)
	if err != nil {
		return err
	}
	nandQPS, _, _, err := sdm.HostQPS(inst, tables, &sdm.Config{
		SMTech: sdm.NandFlash, Ring: sdm.RingConfig{SGL: true}, CacheBytes: 8 << 20,
	}, sdm.HostConfig{Spec: sdm.HWAN(), InterOp: true}, 4, budget, 500)
	if err != nil {
		return err
	}
	optQPS, optRes, _, err := sdm.HostQPS(inst, tables, &sdm.Config{
		SMTech: sdm.OptaneSSD, Ring: sdm.RingConfig{SGL: true}, CacheBytes: 8 << 20,
	}, sdm.HostConfig{Spec: sdm.HWAO(), InterOp: true}, 4, budget, 500)
	if err != nil {
		return err
	}

	fmt.Printf("HW-AN + ScaleOut: max qps %7.0f\n", scaleOutQPS)
	fmt.Printf("HW-AN + SDM:      max qps %7.0f (Nand latency forces underutilization)\n", nandQPS)
	fmt.Printf("HW-AO + SDM:      max qps %7.0f (hit rate %.0f%%)\n", optQPS, optRes.HitRate*100)

	total := scaleOutQPS * 1500
	so, err := power.Provision(power.Scenario{
		Name: "scale-out", QPSPerHost: scaleOutQPS, HostPower: 1.0,
		CompanionPowerPerHost: 0.05, CompanionHostsPerHost: 0.2,
	}, total)
	if err != nil {
		return err
	}
	opt, err := power.Provision(power.Scenario{Name: "HW-AO+SDM", QPSPerHost: optQPS, HostPower: 1.0}, total)
	if err != nil {
		return err
	}
	fmt.Printf("\nfleet at %.0f total QPS:\n", total)
	fmt.Printf("  scale-out:  %5d+%4d hosts, power %6.0f\n", so.Hosts, so.Companions, so.TotalPower)
	fmt.Printf("  HW-AO+SDM:  %5d hosts,      power %6.0f\n", opt.Hosts, opt.TotalPower)
	fmt.Printf("  power saving: %.1f%% (paper: 5%%)\n", power.Savings(so, opt)*100)
	return nil
}
