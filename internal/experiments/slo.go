package experiments

import (
	"bytes"
	"fmt"
	"strings"
	"time"

	"sdm/internal/adapt"
	"sdm/internal/cluster"
	"sdm/internal/core"
	"sdm/internal/embedding"
	"sdm/internal/model"
	"sdm/internal/obs"
	"sdm/internal/placement"
	"sdm/internal/serving"
	"sdm/internal/uring"
	"sdm/internal/workload"
)

// sloSweepModel is the utilization-sweep fixture: a small M1 derivative
// with a row cache sized to a sticky host's user share, so routing policy
// moves both hit rate and the tail, and per-host capacity is low enough
// that the sweep's top points genuinely saturate the hottest replica.
func sloSweepModel() (*model.Instance, []*embedding.Table, error) {
	cfg := model.M1()
	cfg.NumUserTables = 5
	cfg.NumItemTables = 3
	cfg.ItemBatch = 4
	cfg.TotalBytes = 1 << 21
	cfg.NumMLPLayers = 4
	cfg.AvgMLPWidth = 64
	return buildModel(cfg, 1, 31)
}

// slo runs the SLO-aware serving drill in three acts. First the coord
// experiment's coordinated drift drill re-routed: a weighted router that
// reads the fleet's migration state (affinity + queue depth + migration
// avoidance) steers queries away from the replica actively migrating
// inside its granted window, cutting the post-rotation fleet tail below sticky
// hashing while serving the same share from FM. Second a utilization
// sweep: sticky wins the cache hit rate at low load, but saturates its
// hottest replica first, so round-robin overtakes it on p99 past the
// knee. Third, admission control: at ~2× the sticky fleet's capacity,
// per-class token buckets shed the excess and restore millisecond tails,
// with the rejected share accounted per SLO class.
func slo(sc Scale) (*Report, error) {
	const (
		drillHosts = 3
		cappedBW   = 16 << 20
	)

	drillInst, drillTables, err := driftModel(sc, 1.05)
	if err != nil {
		return nil, err
	}
	sweepInst, sweepTables, err := sloSweepModel()
	if err != nil {
		return nil, err
	}

	// runDrill executes the coordinated drift drill (identical geometry
	// to the coord experiment's coordinated fleet) under the given
	// router, tracing decisions with counterfactuals.
	runDrill := func(mk func() (cluster.Router, error), workers int) (*cluster.Result, adapt.Stats, []obs.Event, error) {
		r, err := mk()
		if err != nil {
			return nil, adapt.Stats{}, nil, err
		}
		out, err := driftDrill{
			inst: drillInst, tables: drillTables, hosts: drillHosts, qps: 2400, n: drillQueries(sc),
			place: placement.Config{Policy: placement.SMOnlyWithCache},
			acfg: &adapt.Config{
				Interval:          150 * time.Millisecond,
				DRAMBudget:        driftTableBytes + driftTableBytes/4,
				ChunkBytes:        16 << 10,
				Granularity:       adapt.Ranges,
				PaybackSeconds:    3,
				WearDaysPerSecond: 0.005,
			},
			coordBW: cappedBW, router: r, workers: workers, trace: obs.LevelCounterfactual,
			gen: workload.Config{Spatial: true, Drift: workload.DriftConfig{PhaseQueries: 800}},
		}.run(sc)
		return out.res, out.stats, out.events, err
	}
	weighted := func(name, spec string) func() (cluster.Router, error) {
		return func() (cluster.Router, error) {
			sws, err := cluster.ParseScorers(spec, drillHosts)
			if err != nil {
				return nil, err
			}
			return cluster.NewWeightedRouter(name, sws...)
		}
	}
	mkSticky := func() (cluster.Router, error) { return cluster.NewSticky(drillHosts, 64), nil }
	mkWeighted := weighted("migration-aware", "affinity=1,queue=0.4,migavoid=1.2")
	// The trace's control config: affinity + the same sub-affinity queue
	// weight but no migration avoidance. PR 6 established (via aggregate
	// tails) that this router never moves a user; the decision trace now
	// proves it per-decision — zero diverted routes.
	mkQueueOnly := weighted("queue-below-affinity", "affinity=1,queue=0.4")

	// runSweep executes one utilization-sweep point on the 4-host
	// small-cache fleet, optionally with SLO classes and admission.
	const sweepHosts = 4
	nSweep := sc.Queries * 8
	if nSweep < 2400 {
		nSweep = 2400
	}
	runSweep := func(mk func() cluster.Router, qps float64, classes int, admit *cluster.AdmitConfig, workers int) (*cluster.Result, error) {
		fl, err := cluster.Build(sweepInst, sweepTables, cluster.Spec{
			Hosts:    sweepHosts,
			Store:    &core.Config{Seed: sc.Seed, Ring: uring.Config{SGL: true}, CacheBytes: 1 << 15},
			Host:     serving.Config{Spec: serving.HWSS(), InterOp: true},
			Router:   mk(),
			Fleet:    cluster.Config{Seed: sc.Seed, HostWorkers: workers},
			Workload: workload.Config{Seed: sc.Seed, NumUsers: 800, UserAlpha: 0.8, SLOClasses: classes},
			Admit:    admit,
		})
		if err != nil {
			return nil, err
		}
		return fl.Run(qps, nSweep)
	}
	mkRR := func() cluster.Router { return cluster.NewRoundRobin() }
	mkStickySweep := func() cluster.Router { return cluster.NewSticky(sweepHosts, 64) }
	sweepQPS := []float64{2000, 8000, 16000}
	gate := cluster.AdmitConfig{Classes: []cluster.ClassAdmit{
		{Name: "gold", RatePerSec: 3000, Burst: 30},
		{Name: "best-effort", RatePerSec: 2000, Burst: 20},
	}}

	var (
		stickyDrill, weightedDrill, weightedDrill4 *cluster.Result
		stickyStats, weightedStats, weightedStats4 adapt.Stats
		stickyEvents, weightedEvents               []obs.Event
		weightedEvents4, queueEvents               []obs.Event
		rrSweep, stSweep                           [3]*cluster.Result
		gated, gated4                              *cluster.Result
	)
	jobs := []func() error{
		func() (err error) {
			stickyDrill, stickyStats, stickyEvents, err = runDrill(mkSticky, 1)
			return
		},
		func() (err error) {
			weightedDrill, weightedStats, weightedEvents, err = runDrill(mkWeighted, 1)
			return
		},
		func() (err error) {
			weightedDrill4, weightedStats4, weightedEvents4, err = runDrill(mkWeighted, 4)
			return
		},
		func() (err error) { _, _, queueEvents, err = runDrill(mkQueueOnly, 1); return },
		func() (err error) { gated, err = runSweep(mkStickySweep, 16000, 2, &gate, 1); return },
		func() (err error) { gated4, err = runSweep(mkStickySweep, 16000, 2, &gate, 4); return },
	}
	for i, q := range sweepQPS {
		i, q := i, q
		jobs = append(jobs,
			func() (err error) { rrSweep[i], err = runSweep(mkRR, q, 0, nil, 1); return },
			func() (err error) { stSweep[i], err = runSweep(mkStickySweep, q, 0, nil, 1); return },
		)
	}
	if err := inParallel(jobs...); err != nil {
		return nil, err
	}

	classKey := func(r *cluster.Result) string {
		var b strings.Builder
		b.WriteString(r.String())
		for _, c := range r.Classes {
			b.WriteString(c.String())
		}
		return b.String()
	}
	// renderTrace is the determinism probe: the full counterfactual JSONL,
	// byte for byte. The HostWorkers=1 and =4 weighted drills must render
	// identically — the same invariant TestTraceDeterministicAcrossWorkers
	// holds under -race in CI.
	renderTrace := func(events []obs.Event) string {
		var b bytes.Buffer
		if err := obs.WriteJSONL(&b, obs.LevelCounterfactual, events, obs.Summarize(obs.LevelCounterfactual, events)); err != nil {
			return err.Error()
		}
		return b.String()
	}
	queueSum := obs.Summarize(obs.LevelCounterfactual, queueEvents)
	weightedSum := obs.Summarize(obs.LevelCounterfactual, weightedEvents)
	// Post-rotation slice of the weighted drill's routing decisions: only
	// diversions after the hot-set rotation are migration avoidance at
	// work, so the regret-vs-sticky aggregate is computed over them.
	var postEvents []obs.Event
	for _, ev := range weightedEvents {
		if ev.Kind == "route" && ev.Time >= weightedDrill.DriftAt {
			postEvents = append(postEvents, ev)
		}
	}
	postSum := obs.Summarize(obs.LevelCounterfactual, postEvents)
	// Config-level counterfactual: both drills route the same arrival
	// stream, so the sticky trace holds the latency every weighted-drill
	// query would have seen under sticky routing. Join on sequence number
	// and sum the post-rotation differences.
	stickyLat := make(map[int]float64, len(stickyEvents))
	for _, ev := range stickyEvents {
		if ev.Kind == "route" && ev.Route.LatencySeconds > 0 {
			stickyLat[ev.Route.Seq] = ev.Route.LatencySeconds
		}
	}
	var regretJoined int
	var regretSum float64
	for _, ev := range postEvents {
		if ev.Route.LatencySeconds <= 0 {
			continue
		}
		if sl, ok := stickyLat[ev.Route.Seq]; ok {
			regretJoined++
			regretSum += ev.Route.LatencySeconds - sl
		}
	}

	// Coordinated drift drill: peak post-rotation fleet p99 and steady
	// final FM-served rate, sticky vs the migration-aware weighted router
	// on the same fleet geometry.
	stickyP99, weightedP99 := peakPostDriftP99(stickyDrill), peakPostDriftP99(weightedDrill)
	stickyFM, weightedFM := tailMeanFM(stickyDrill), tailMeanFM(weightedDrill)
	// Overload drill at the top sweep point (~2× the sticky fleet's
	// saturation): open-loop p99 vs admission-gated p99 and the shed share
	// the bound cost.
	openP99, gatedP99 := stSweep[len(stSweep)-1].Latency.P99(), gated.Latency.P99()
	var shedShare float64
	if d := gated.Shed + int(gated.Latency.Count()); d > 0 {
		shedShare = float64(gated.Shed) / float64(d)
	}
	// Whether the weighted drill and the admission-gated run repeated at a
	// different HostWorkers count were bit-identical — including the
	// weighted drill's rendered JSONL trace.
	deterministic := weightedDrill.String() == weightedDrill4.String() &&
		finalWindow(weightedDrill) == finalWindow(weightedDrill4) &&
		weightedStats == weightedStats4 &&
		classKey(gated) == classKey(gated4) &&
		renderTrace(weightedEvents) == renderTrace(weightedEvents4)
	// The per-decision view of the regret: mean EWMA-estimated regret vs
	// the sticky host over the drill's post-rotation diverted decisions,
	// zero when the measured run never diverts.
	var regretPostPrevMS float64
	if postSum.DivertedCFRows > 0 {
		regretPostPrevMS = postSum.RegretPrevSeconds / float64(postSum.DivertedCFRows) * 1e3
	}

	res := &Report{Header: fmt.Sprintf("%-24s %14s %9s %12s %10s", "fleet (coord drill)", "peak p99(ms)", "finalFM%", "smW(MB)", "promo/dem")}
	drillRow := func(name string, r *cluster.Result, st adapt.Stats) string {
		return fmt.Sprintf("%-24s %14.2f %9.1f %12.2f %5d/%d",
			name, peakPostDriftP99(r)*1e3, tailMeanFM(r)*100,
			float64(r.SMWriteBytes)/(1<<20), st.Promotions, st.Demotions)
	}
	res.Rows = append(res.Rows,
		drillRow("sticky", stickyDrill, stickyStats),
		drillRow("weighted migration-aware", weightedDrill, weightedStats))
	res.Rows = append(res.Rows, fmt.Sprintf(
		"routing: migration-aware scoring cuts post-rotation peak p99 %.2fms -> %.2fms (%+.0f%%) at final FM %.1f%% vs %.1f%% (Δ%.1fpp)",
		stickyP99*1e3, weightedP99*1e3, 100*(weightedP99/stickyP99-1),
		weightedFM*100, stickyFM*100, (weightedFM-stickyFM)*100))
	// Utilization sweep: each policy's p99 per offered QPS point, plus the
	// low-load hit rates (the locality win sticky routing buys while the
	// fleet has headroom).
	for i, q := range sweepQPS {
		res.Rows = append(res.Rows, fmt.Sprintf(
			"sweep @%5.0f qps: rr p99 %8.2fms (achieved %6.0f)   sticky p99 %8.2fms (achieved %6.0f)",
			q, rrSweep[i].Latency.P99()*1e3, rrSweep[i].AchievedQPS, stSweep[i].Latency.P99()*1e3, stSweep[i].AchievedQPS))
		res.add(fmt.Sprintf("sweep.rr_p99.%d", i), rrSweep[i].Latency.P99(), "s")
		res.add(fmt.Sprintf("sweep.sticky_p99.%d", i), stSweep[i].Latency.P99(), "s")
	}
	res.Rows = append(res.Rows, fmt.Sprintf(
		"knee: sticky wins hit rate at low load (%.1f%% vs rr %.1f%%) but saturates its hottest replica first — rr p99 overtakes %0.fx at @%0.f qps",
		stSweep[0].HitRate*100, rrSweep[0].HitRate*100, stSweep[2].Latency.P99()/rrSweep[2].Latency.P99(), sweepQPS[2]))
	res.Rows = append(res.Rows, fmt.Sprintf(
		"admission @%0.f qps (2x overload): open-loop p99 %.2fms -> gated %.2fms, shed %d of %d offered (%.0f%%), class Jain=%.3f",
		sweepQPS[2], openP99*1e3, gatedP99*1e3,
		gated.Shed, gated.Shed+int(gated.Latency.Count()), shedShare*100, gated.ClassFairness))
	for _, c := range gated.Classes {
		res.Rows = append(res.Rows, fmt.Sprintf(
			"  class %-12s offered=%5d shed=%5d (%.0f%%) p50=%.2fms p99=%.2fms p999=%.2fms",
			c.Name, c.Offered, c.Shed, c.ShedShare()*100,
			c.Latency.P50()*1e3, c.Latency.P99()*1e3, c.Latency.P999()*1e3))
	}
	res.Rows = append(res.Rows, fmt.Sprintf(
		"trace: queue(0.4) below affinity(1.0) diverted %d of %d routes; migration-aware diverted %d of %d (%.1f%%)",
		queueSum.Diversions, queueSum.Routes, weightedSum.Diversions, weightedSum.Routes,
		weightedSum.DiversionRate()*100))
	res.Rows = append(res.Rows, fmt.Sprintf(
		"counterfactual: post-rotation regret vs sticky %+.3fms summed over %d queries joined across the two traces — negative means migration-aware routing beat sticky",
		regretSum*1e3, regretJoined))
	res.Rows = append(res.Rows, fmt.Sprintf(
		"  per-decision: %d diverted rows in the measured run (%d post-rotation), EWMA regret vs the sticky host %+.3fms/route",
		weightedSum.DivertedCFRows, postSum.DivertedCFRows, regretPostPrevMS))
	res.Rows = append(res.Rows, fmt.Sprintf(
		"weighted drill (result + decision trace) and gated overload repeated at HostWorkers=4: bit-identical=%t", deterministic))
	res.Notes = append(res.Notes,
		"weighted router = affinity(1.0) + queue(0.4) + migration-avoid(1.2): queries divert from the replica actively migrating inside its granted window, then return",
		"the sweep fixture's sticky fleet saturates its hottest replica near 11k qps while round-robin's even spread holds to ~24k — the BLIS utilization knee",
		"admission: per-class token buckets (gold 3000/s burst 30, best-effort 2000/s burst 20) cap the admitted rate below the sticky knee; the p99 bound is bought with the reported shed share",
		"decision traces (obs.LevelCounterfactual) re-score each diverted route against the sticky host's completed-latency EWMA at completion time; the config-level regret instead joins the sticky and migration-aware traces on arrival sequence and prices every query under both routers",
	)
	res.add("sticky.peak_p99", stickyP99, "s")
	res.add("weighted.peak_p99", weightedP99, "s")
	res.add("sticky.final_fm", stickyFM, "frac")
	res.add("weighted.final_fm", weightedFM, "frac")
	res.add("low_hit.rr", rrSweep[0].HitRate, "frac")
	res.add("low_hit.sticky", stSweep[0].HitRate, "frac")
	res.add("open_p99", openP99, "s")
	res.add("gated_p99", gatedP99, "s")
	res.add("shed_share", shedShare, "frac")
	// A queue weight (0.4) below affinity's (1.0) never moves a user: the
	// trace-level proof of that negative result is zero diversions.
	res.add("queue.diversions", float64(queueSum.Diversions), "count")
	res.add("queue.routes", float64(queueSum.Routes), "count")
	// The config-level counterfactual: the sticky and migration-aware
	// drills consume the same arrival stream, so joining their traces on
	// sequence number prices every post-rotation query under both routing
	// configs. The sum of (weighted − sticky) latency over the joined rows
	// is negative when migration-aware routing beat sticky query for query.
	res.add("regret_vs_sticky", regretSum*1e3, "ms")
	res.add("regret_joined", float64(regretJoined), "count")
	res.add("workers_deterministic", flag(deterministic), "bool")
	return res, nil
}
