package experiments

import (
	"fmt"

	"sdm/internal/blockdev"
	"sdm/internal/cluster"
	"sdm/internal/core"
	"sdm/internal/power"
	"sdm/internal/serving"
	"sdm/internal/uring"
	"sdm/internal/workload"
)

// ClusterResult carries the routing-policy comparison: the serving-time
// realization of Fig. 4c, plus the failure/warmup scenario and the
// cluster-measured provisioning path.
type ClusterResult struct {
	tableResult
	StickyHitRate, RRHitRate               float64
	P99UpliftFrac                          float64
	ReroutedUsers                          int
	WarmupSpike                            float64
	WarmupHitDrop                          float64
	ClusterHosts, SingleExtrapolationHosts int
}

// Cluster runs one shared Zipf user population against a 4-host fleet
// under round-robin, least-outstanding and sticky consistent-hash routing
// (same trace, same seeds), then a sticky run that kills a host mid-run,
// and finally sizes a fleet from the measured cluster QPS via
// power.ClusterScenario against single-host extrapolation.
func Cluster(sc Scale) (Result, error) {
	inst, tables, err := experimentModel(sc)
	if err != nil {
		return nil, err
	}
	const nHosts = 4
	// Nand SM and a cache that fits a sticky host's user share (but not
	// the whole population) put the fleet where routing policy moves both
	// hit rate and the tail: the Fig. 4c serving-time regime.
	scfg := core.Config{
		Seed: sc.Seed, SMTech: blockdev.NandFlash,
		Ring: uring.Config{SGL: true}, CacheBytes: 1 << 20,
	}
	hcfg := serving.Config{Spec: serving.HWSS(), InterOp: true}
	wcfg := workload.Config{Seed: sc.Seed, NumUsers: 2000, UserAlpha: 0.8}
	qps := 300.0
	n := sc.Queries * 4

	// Each policy run warms the fleet with one failure-free pass, then
	// measures a second pass on steady-state caches (§A.4 discipline).
	runPolicy := func(r cluster.Router, failHost int) (*cluster.Result, error) {
		hosts, err := cluster.HostSet(inst, tables, nHosts, &scfg, hcfg)
		if err != nil {
			return nil, err
		}
		fl, err := cluster.New(hosts, r, cluster.Config{Seed: sc.Seed})
		if err != nil {
			return nil, err
		}
		gen, err := workload.NewGenerator(inst, wcfg)
		if err != nil {
			return nil, err
		}
		fl.SetGenerator(gen)
		if _, err := fl.Run(qps, n); err != nil {
			return nil, err
		}
		if failHost >= 0 {
			if err := fl.ScheduleFailure(failHost, 0.5); err != nil {
				return nil, err
			}
		}
		return fl.Run(qps, n)
	}

	// Four independent fleets plus the single-host baseline: measure them
	// concurrently (each owns every piece of its state).
	var rr, loq, sticky, failed *cluster.Result
	var singleQPS float64
	err = inParallel(
		func() (err error) { rr, err = runPolicy(cluster.NewRoundRobin(), -1); return },
		func() (err error) { loq, err = runPolicy(cluster.NewLeastOutstanding(), -1); return },
		func() (err error) { sticky, err = runPolicy(cluster.NewSticky(nHosts, 64), -1); return },
		func() (err error) { failed, err = runPolicy(cluster.NewSticky(nHosts, 64), 1); return },
		func() error {
			// Single-host extrapolation baseline: one identical host
			// measured on its 1/N share of the offered load, over the full
			// (unpartitioned) user population — exactly what Tables 8/9
			// multiply out.
			hosts, err := cluster.HostSet(inst, tables, 1, &scfg, hcfg)
			if err != nil {
				return err
			}
			fl, err := cluster.New(hosts, cluster.NewRoundRobin(), cluster.Config{Seed: sc.Seed})
			if err != nil {
				return err
			}
			gen, err := workload.NewGenerator(inst, wcfg)
			if err != nil {
				return err
			}
			fl.SetGenerator(gen)
			if _, err := fl.Run(qps/nHosts, n/nHosts); err != nil {
				return err
			}
			res, err := fl.Run(qps/nHosts, n/nHosts)
			if err != nil {
				return err
			}
			singleQPS = res.AchievedQPS
			return nil
		},
	)
	if err != nil {
		return nil, err
	}

	res := &ClusterResult{
		StickyHitRate: sticky.HitRate,
		RRHitRate:     rr.HitRate,
		ReroutedUsers: failed.ReroutedUsers,
		WarmupSpike:   failed.WarmupSpike,
		WarmupHitDrop: failed.WarmupHitDrop,
	}
	if rrP99 := rr.Latency.P99(); rrP99 > 0 {
		res.P99UpliftFrac = 1 - sticky.Latency.P99()/rrP99
	}
	res.id = "cluster"
	res.header = fmt.Sprintf("%-18s %9s %9s %9s %9s %8s", "policy", "qps", "p50(ms)", "p99(ms)", "hit%", "sm/qry")
	row := func(r *cluster.Result) string {
		var sm uint64
		for _, h := range r.Hosts {
			sm += h.SMReads
		}
		return fmt.Sprintf("%-18s %9.0f %9.2f %9.2f %9.1f %8.1f",
			r.Policy, r.AchievedQPS, r.Latency.P50()*1e3, r.Latency.P99()*1e3,
			r.HitRate*100, float64(sm)/float64(r.Queries))
	}
	res.rows = append(res.rows, row(rr), row(loq), row(sticky))
	res.rows = append(res.rows,
		fmt.Sprintf("sticky vs round-robin: hit rate %+0.1fpp, p99 %+0.1f%% (Fig. 4c realized at serving time)",
			(sticky.HitRate-rr.HitRate)*100, res.P99UpliftFrac*100))
	res.rows = append(res.rows,
		fmt.Sprintf("failure drill (sticky, kill host 1 mid-run): rerouted users=%d; their warmup spike=%.2fx, hit drop=%.1fpp (§A.4)",
			failed.ReroutedUsers, failed.WarmupSpike, failed.WarmupHitDrop*100))

	// Provisioning: size a 100x-demand fleet from the measured cluster vs
	// single-host extrapolation.
	totalQPS := sticky.AchievedQPS * 100
	cs, err := power.ClusterScenario("sticky x4 (measured)", sticky.AchievedQPS, nHosts, serving.HWSS().RelPower)
	if err != nil {
		return nil, err
	}
	clusterFleet, err := power.Provision(cs, totalQPS)
	if err != nil {
		return nil, err
	}
	singleFleet, err := power.Provision(power.Scenario{
		Name: "single-host extrapolation", QPSPerHost: singleQPS, HostPower: serving.HWSS().RelPower,
	}, totalQPS)
	if err != nil {
		return nil, err
	}
	res.ClusterHosts = clusterFleet.Hosts
	res.SingleExtrapolationHosts = singleFleet.Hosts
	res.rows = append(res.rows,
		fmt.Sprintf("provisioning %0.f QPS: cluster-measured %d hosts (power %.0f) vs single-host extrapolation %d hosts (power %.0f)",
			totalQPS, clusterFleet.Hosts, clusterFleet.TotalPower, singleFleet.Hosts, singleFleet.TotalPower))
	res.notes = append(res.notes,
		"sticky consistent hashing concentrates each user's rows on one replica: higher per-host hit rate than round-robin on the same trace",
		"cluster-measured provisioning bakes routing/imbalance into QPS/host; single-host extrapolation is the Tables 8/9 multiply-out")
	return res, nil
}
