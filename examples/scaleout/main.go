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

	scaleOutQPS, _, err := measure(inst, tables, nil, sdm.HWAN(), true)
	if err != nil {
		return err
	}
	nandQPS, _, err := measure(inst, tables, &sdm.Config{
		SMTech: sdm.NandFlash, Ring: sdm.RingConfig{SGL: true}, CacheBytes: 8 << 20,
	}, sdm.HWAN(), false)
	if err != nil {
		return err
	}
	optQPS, optRes, err := measure(inst, tables, &sdm.Config{
		SMTech: sdm.OptaneSSD, Ring: sdm.RingConfig{SGL: true}, CacheBytes: 8 << 20,
	}, sdm.HWAO(), false)
	if err != nil {
		return err
	}

	fmt.Printf("HW-AN + ScaleOut: max qps %7.0f\n", scaleOutQPS)
	fmt.Printf("HW-AN + SDM:      max qps %7.0f (Nand latency forces underutilization)\n", nandQPS)
	fmt.Printf("HW-AO + SDM:      max qps %7.0f (hit rate %.0f%%)\n", optQPS, optRes.CacheHitRate*100)

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

func measure(inst *sdm.Instance, tables []*sdm.Table, scfg *sdm.Config, sku sdm.HostSpec, remote bool) (float64, sdm.HostResult, error) {
	var store *sdm.Store
	if scfg != nil {
		s, err := sdm.Open(inst, tables, *scfg, nil)
		if err != nil {
			return 0, sdm.HostResult{}, err
		}
		store = s
	}
	gen, err := sdm.NewGenerator(inst, sdm.WorkloadConfig{Seed: 4, NumUsers: 1000})
	if err != nil {
		return 0, sdm.HostResult{}, err
	}
	host, err := sdm.NewHost(inst, store, tables, gen, nil, sdm.HostConfig{
		Spec: sku, InterOp: true, RemoteUserPath: remote, Seed: 4,
	})
	if err != nil {
		return 0, sdm.HostResult{}, err
	}
	if _, err := host.RunOpenLoop(50, 300); err != nil {
		return 0, sdm.HostResult{}, err
	}
	return host.MaxQPSAtLatency(0.95, 20*time.Millisecond, 5, 200000, 250)
}
