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

// routing is the cluster experiment, Fig. 4c realized at serving time. It
// runs one shared Zipf user population against a 4-host fleet under
// round-robin, least-outstanding and sticky consistent-hash routing (same
// trace, same seeds), then a sticky run that kills a host mid-run, and
// finally sizes a fleet from the measured cluster QPS via
// power.ClusterScenario against single-host extrapolation.
func routing(sc Scale) (*Report, error) {
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

	// Run i warms a fleet of the given size until its rates settle
	// (warms[i]), then measures a pass on steady-state caches (§A.4
	// discipline). A fleet smaller than nHosts gets its share of the load.
	var warms [5]cluster.Warmup
	runPolicy := func(i, size int, r cluster.Router, failHost int) (*cluster.Result, error) {
		fl, err := cluster.Build(inst, tables, cluster.Spec{
			Hosts: size, Store: &scfg, Host: hcfg, Router: r,
			Fleet: cluster.Config{Seed: sc.Seed}, Workload: wcfg,
		})
		if err != nil {
			return nil, err
		}
		q, m := qps*float64(size)/nHosts, n*size/nHosts
		if warms[i], err = fl.Warm(q); err != nil {
			return nil, err
		}
		if failHost >= 0 {
			if err := fl.ScheduleFailure(failHost, 0.5); err != nil {
				return nil, err
			}
		}
		return fl.Run(q, m)
	}

	// Four independent fleets plus the single-host extrapolation baseline:
	// one identical host measured on its 1/N share of the offered load,
	// over the full (unpartitioned) user population — exactly what Tables
	// 8/9 multiply out. Measure them concurrently (each owns every piece of
	// its state).
	var rr, loq, sticky, failed, single *cluster.Result
	err = inParallel(
		func() (err error) { rr, err = runPolicy(0, nHosts, cluster.NewRoundRobin(), -1); return },
		func() (err error) { loq, err = runPolicy(1, nHosts, cluster.NewLeastOutstanding(), -1); return },
		func() (err error) { sticky, err = runPolicy(2, nHosts, cluster.NewSticky(nHosts, 64), -1); return },
		func() (err error) { failed, err = runPolicy(3, nHosts, cluster.NewSticky(nHosts, 64), 1); return },
		func() (err error) { single, err = runPolicy(4, 1, cluster.NewRoundRobin(), -1); return },
	)
	if err != nil {
		return nil, err
	}

	var p99Uplift float64
	if rrP99 := rr.Latency.P99(); rrP99 > 0 {
		p99Uplift = 1 - sticky.Latency.P99()/rrP99
	}
	res := &Report{Header: fmt.Sprintf("%-18s %9s %9s %9s %9s %8s", "policy", "qps", "p50(ms)", "p99(ms)", "hit%", "sm/qry")}
	row := func(r *cluster.Result) string {
		var sm uint64
		for _, h := range r.Hosts {
			sm += h.SMReads
		}
		return fmt.Sprintf("%-18s %9.0f %9.2f %9.2f %9.1f %8.1f",
			r.Policy, r.AchievedQPS, r.Latency.P50()*1e3, r.Latency.P99()*1e3,
			r.HitRate*100, float64(sm)/float64(r.Queries))
	}
	res.Rows = append(res.Rows, row(rr), row(loq), row(sticky))
	res.Rows = append(res.Rows,
		fmt.Sprintf("sticky vs round-robin: hit rate %+0.1fpp, p99 %+0.1f%% (Fig. 4c realized at serving time)",
			(sticky.HitRate-rr.HitRate)*100, p99Uplift*100))
	res.Rows = append(res.Rows,
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
		Name: "single-host extrapolation", QPSPerHost: single.AchievedQPS, HostPower: serving.HWSS().RelPower,
	}, totalQPS)
	if err != nil {
		return nil, err
	}
	res.Rows = append(res.Rows,
		fmt.Sprintf("provisioning %0.f QPS: cluster-measured %d hosts (power %.0f) vs single-host extrapolation %d hosts (power %.0f)",
			totalQPS, clusterFleet.Hosts, clusterFleet.TotalPower, singleFleet.Hosts, singleFleet.TotalPower))
	res.Notes = append(res.Notes,
		"sticky consistent hashing concentrates each user's rows on one replica: higher per-host hit rate than round-robin on the same trace",
		"cluster-measured provisioning bakes routing/imbalance into QPS/host; single-host extrapolation is the Tables 8/9 multiply-out")
	res.add("sticky_hit_rate", sticky.HitRate, "frac")
	res.add("rr_hit_rate", rr.HitRate, "frac")
	res.add("p99_uplift", p99Uplift, "frac")
	res.add("rerouted_users", float64(failed.ReroutedUsers), "count")
	res.add("warmup_spike", failed.WarmupSpike, "ratio")
	res.add("warmup_hit_drop", failed.WarmupHitDrop, "frac")
	res.add("cluster_hosts", float64(clusterFleet.Hosts), "count")
	res.add("single_hosts", float64(singleFleet.Hosts), "count")
	res.addWarm(warms[:]...)
	return res, nil
}
