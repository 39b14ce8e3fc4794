// Fleet routing policies (§4.2 / Fig. 4c at serving time): one shared Zipf
// user population split across a 4-host SDM fleet by a front-end router.
// Sticky consistent hashing pins each user to a replica, concentrating
// their embedding rows in that replica's FM cache — a higher measured hit
// rate than round-robin on the same trace. The second half kills a host
// mid-run: the consistent ring reroutes only the dead host's users, whose
// queries then warm the survivors' caches (§A.4 warmup spike). The last
// act is SLO-aware: a custom scorer-weighted router blends sticky
// affinity with queue avoidance, and per-class token-bucket admission
// bounds a 2x-overload tail at a reported shed share.
package main

import (
	"bytes"
	"fmt"
	"log"
	"strings"

	"sdm"
)

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	cfg := sdm.M1()
	cfg.NumUserTables = 8
	cfg.NumItemTables = 4
	cfg.ItemBatch = 8
	cfg.NumMLPLayers = 4
	cfg.AvgMLPWidth = 64
	inst, err := sdm.Build(cfg, 1.5e-4, 42)
	if err != nil {
		return err
	}
	tables, err := inst.Materialize()
	if err != nil {
		return err
	}

	const hosts = 4
	scfg := sdm.Config{
		Seed: 42, SMTech: sdm.NandFlash,
		Ring: sdm.RingConfig{SGL: true}, CacheBytes: 1 << 20,
	}
	hcfg := sdm.HostConfig{Spec: sdm.HWSS(), InterOp: true}

	// Same trace, same seeds, different routing policy.
	measure := func(r sdm.Router, fail int) (*sdm.FleetResult, error) {
		hs, err := sdm.NewFleetHosts(inst, tables, hosts, &scfg, hcfg)
		if err != nil {
			return nil, err
		}
		fleet, err := sdm.NewFleet(hs, r, sdm.FleetConfig{Seed: 42})
		if err != nil {
			return nil, err
		}
		gen, err := sdm.NewGenerator(inst, sdm.WorkloadConfig{Seed: 42, NumUsers: 2000, UserAlpha: 0.8})
		if err != nil {
			return nil, err
		}
		fleet.SetGenerator(gen)
		if _, err := fleet.Run(300, 2000); err != nil { // warm the caches
			return nil, err
		}
		if fail >= 0 {
			if err := fleet.ScheduleFailure(fail, 0.5); err != nil {
				return nil, err
			}
		}
		return fleet.Run(300, 2000)
	}

	rr, err := measure(sdm.NewRoundRobin(), -1)
	if err != nil {
		return err
	}
	sticky, err := measure(sdm.NewSticky(hosts, 64), -1)
	if err != nil {
		return err
	}
	fmt.Println("routing policy comparison (same trace):")
	fmt.Printf("  %s\n  %s\n", rr, sticky)
	fmt.Printf("  sticky hit-rate uplift: %+.1fpp (Fig. 4c realized at serving time)\n\n",
		(sticky.HitRate-rr.HitRate)*100)

	failed, err := measure(sdm.NewSticky(hosts, 64), 1)
	if err != nil {
		return err
	}
	fmt.Println("failure drill (kill host 1 mid-run):")
	fmt.Printf("  rerouted users: %d (only the dead host's users move — consistent hashing)\n",
		failed.ReroutedUsers)
	fmt.Printf("  their warmup: latency %.2fx, hit rate %.1fpp colder (§A.4)\n\n",
		failed.WarmupSpike, failed.WarmupHitDrop*100)

	// SLO-aware serving: compose a router from weighted scorers (sticky
	// affinity blended with queue avoidance), tag queries with two SLO
	// classes, and gate each class's admitted rate with a token bucket.
	// The overloaded open-loop tail collapses to the admitted tail; the
	// cost is the per-class shed share the result accounts.
	weighted, err := sdm.NewWeightedRouter("affinity+queue",
		sdm.ScorerWeight{Scorer: sdm.NewAffinityScorer(hosts, 64), Weight: 1.0},
		sdm.ScorerWeight{Scorer: sdm.NewQueueScorer(), Weight: 1.5},
	)
	if err != nil {
		return err
	}
	overload := func(r sdm.Router, admit *sdm.AdmitConfig) (*sdm.FleetResult, error) {
		hs, err := sdm.NewFleetHosts(inst, tables, hosts, &scfg, hcfg)
		if err != nil {
			return nil, err
		}
		fleet, err := sdm.NewFleet(hs, r, sdm.FleetConfig{Seed: 42})
		if err != nil {
			return nil, err
		}
		if admit != nil {
			if err := fleet.SetAdmission(*admit); err != nil {
				return nil, err
			}
		}
		gen, err := sdm.NewGenerator(inst, sdm.WorkloadConfig{
			Seed: 42, NumUsers: 2000, UserAlpha: 0.8, SLOClasses: 2,
		})
		if err != nil {
			return nil, err
		}
		fleet.SetGenerator(gen)
		return fleet.Run(12000, 3000)
	}
	open, err := overload(weighted, nil)
	if err != nil {
		return err
	}
	gate := sdm.AdmitConfig{Classes: []sdm.ClassAdmit{
		{Name: "gold", RatePerSec: 2500, Burst: 25},
		{Name: "best-effort", RatePerSec: 1500, Burst: 15},
	}}
	gated, err := overload(weighted, &gate)
	if err != nil {
		return err
	}
	fmt.Println("SLO-aware overload (scorer-weighted router, 2 SLO classes):")
	fmt.Printf("  open loop:  p99 %.2fms at %.0f qps offered\n",
		open.Latency.P99()*1e3, open.OfferedQPS)
	fmt.Printf("  admission:  p99 %.2fms, shed %d of %d, class-share Jain=%.3f\n",
		gated.Latency.P99()*1e3, gated.Shed, gated.Queries, gated.ClassFairness)
	for _, c := range gated.Classes {
		fmt.Printf("    %-12s offered=%4d shed=%4d p99=%.2fms\n",
			c.Name, c.Offered, c.Shed, c.Latency.P99()*1e3)
	}

	// Decision tracing: rerun the gated overload with the observability
	// layer on. Every routing and admission verdict is recorded with its
	// reasoning (per-scorer score parts, rejected alternatives, bucket
	// levels) and merged in virtual-time order — the trace is
	// bit-identical at any HostWorkers setting, like the results. At
	// TraceCounterfactual each route row also carries what the runner-up
	// host would likely have cost.
	hs, err := sdm.NewFleetHosts(inst, tables, hosts, &scfg, hcfg)
	if err != nil {
		return err
	}
	fleet, err := sdm.NewFleet(hs, weighted, sdm.FleetConfig{Seed: 42})
	if err != nil {
		return err
	}
	if err := fleet.SetAdmission(gate); err != nil {
		return err
	}
	if err := fleet.SetTrace(sdm.TraceConfig{Level: sdm.TraceCounterfactual}); err != nil {
		return err
	}
	gen, err := sdm.NewGenerator(inst, sdm.WorkloadConfig{
		Seed: 42, NumUsers: 2000, UserAlpha: 0.8, SLOClasses: 2,
	})
	if err != nil {
		return err
	}
	fleet.SetGenerator(gen)
	if _, err := fleet.Run(12000, 3000); err != nil {
		return err
	}
	sum, _ := fleet.TraceSummary()
	fmt.Println("\ndecision trace (same gated run, observability on):")
	fmt.Printf("  %s\n", sum)
	for _, ev := range fleet.TraceEvents() {
		if ev.Kind != "route" || !ev.Route.Diverted {
			continue
		}
		d := ev.Route
		fmt.Printf("  first diverted route: seq=%d user=%d host %d -> %d (score %.2f, %d alts recorded)\n",
			d.Seq, d.User, d.Prev, d.Chosen, d.Score, len(d.Alts))
		break
	}
	fmt.Printf("  full JSONL stream: fleet.WriteTrace(w) — %d events, summary line last\n",
		sum.Events)

	// Metrics plane: rerun the gated overload with the instrument
	// registry attached. Hosts, stores, and the front-end register typed
	// instruments once; the fleet samples them on virtual-time boundaries
	// and the rendered series — OpenMetrics text or JSONL — is
	// byte-identical at any HostWorkers setting. Print the three most
	// load-bearing series of an overload investigation: the admitted
	// per-window tail, who is shedding, and how FM-served each host runs.
	hs, err = sdm.NewFleetHosts(inst, tables, hosts, &scfg, hcfg)
	if err != nil {
		return err
	}
	fleet, err = sdm.NewFleet(hs, weighted, sdm.FleetConfig{Seed: 42})
	if err != nil {
		return err
	}
	if err := fleet.SetAdmission(gate); err != nil {
		return err
	}
	if err := fleet.SetMetrics(sdm.MetricsConfig{}); err != nil {
		return err
	}
	gen, err = sdm.NewGenerator(inst, sdm.WorkloadConfig{
		Seed: 42, NumUsers: 2000, UserAlpha: 0.8, SLOClasses: 2,
	})
	if err != nil {
		return err
	}
	fleet.SetGenerator(gen)
	if _, err := fleet.Run(12000, 3000); err != nil {
		return err
	}
	var buf bytes.Buffer
	if err := fleet.WriteMetrics(&buf); err != nil {
		return err
	}
	fmt.Println("\nmetrics plane (same gated run, instruments on):")
	for _, prefix := range []string{
		"sdm_fleet_window_p99_latency_seconds ",
		"sdm_fleet_class_shed_total",
		"sdm_host_fm_served_ratio",
	} {
		n := 0
		for _, line := range strings.Split(buf.String(), "\n") {
			if strings.HasPrefix(line, prefix) {
				fmt.Printf("  %s\n", line)
				n++
			}
			if n == 4 {
				break
			}
		}
	}
	fmt.Printf("  full export: fleet.WriteMetrics(w) — %d bytes of OpenMetrics, same bytes at any worker count\n",
		buf.Len())
	return nil
}
