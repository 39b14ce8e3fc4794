// Command sdmcluster drives the multi-host fleet simulator: N SDM-backed
// serving hosts behind a front-end router, one shared Zipf user population,
// pluggable user→host routing policies, an optional mid-run host kill, and
// an optional mid-run hot-set rotation with per-host adaptive tiering.
//
// Usage:
//
//	sdmcluster [-hosts n] [-policy rr|loq|sticky|weighted|all] [-qps q] [-queries n]
//	           [-fail id] [-failfrac f] [-warm] [-workers w] [-seed s]
//	           [-scale f] [-json]
//	           [-drift f] [-adapt] [-hottables k] [-itemtables k] [-migbw bytes/s]
//	           [-coord] [-slot d] [-wear days/s]
//	           [-scorers spec] [-sloclasses k] [-admit spec]
//	           [-trace file] [-trace-level off|summary|decisions|counterfactual]
//	           [-counterfactual-k n]
//	           [-metrics file] [-metrics-every d]
//	           [-cpuprofile file] [-memprofile file]
//
// Examples:
//
//	sdmcluster -policy all                 # compare the four policies
//	sdmcluster -policy sticky -fail 1      # kill host 1 mid-run (§A.4)
//	sdmcluster -hottables 2 -drift 0.5 -adapt
//	                                       # rotate the hot set mid-run and
//	                                       # let each host re-place tables
//	sdmcluster -hottables 2 -drift 0.5 -adapt -grain range -coord -wear 0.01
//	                                       # …with staggered migration windows
//	                                       # and wear-aware packing fleet-wide
//	sdmcluster -policy weighted -scorers affinity=1,queue=0.4,migavoid=1.2
//	                                       # compose a custom scorer-weighted
//	                                       # router from named scorers
//	sdmcluster -sloclasses 2 -admit gold=300:30,best-effort=200:20:queue
//	                                       # tag queries with SLO classes and
//	                                       # gate each class's admitted rate
//	sdmcluster -policy weighted -trace trace.jsonl -trace-level counterfactual
//	                                       # record why every decision went the
//	                                       # way it did, with runner-up regret
//	sdmcluster -policy sticky -metrics metrics.txt -metrics-every 100ms
//	                                       # export the measured run's sampled
//	                                       # instrument series (OpenMetrics by
//	                                       # extension; .jsonl selects JSONL)
//	sdmcluster -cpuprofile cpu.pprof       # wall-clock profile with sdm_phase
//	                                       # labels (route+admit/exec/migrate)
//
// Virtual-time results are bit-identical for a fixed seed at any -workers
// value; the flag only changes wall-clock time.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"

	"sdm/internal/adapt"
	"sdm/internal/blockdev"
	"sdm/internal/cluster"
	"sdm/internal/core"
	"sdm/internal/model"
	"sdm/internal/obs"
	"sdm/internal/placement"
	"sdm/internal/serving"
	"sdm/internal/uring"
	"sdm/internal/workload"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "sdmcluster:", err)
		os.Exit(1)
	}
}

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("sdmcluster", flag.ContinueOnError)
	var (
		hosts    = fs.Int("hosts", 4, "fleet size")
		policy   = fs.String("policy", "sticky", "routing policy: rr, loq, sticky, or all")
		qps      = fs.Float64("qps", 300, "offered fleet QPS (open loop)")
		queries  = fs.Int("queries", 2000, "measured queries per run")
		warm     = fs.Bool("warm", true, "run one warmup pass before measuring")
		fail     = fs.Int("fail", -1, "host id to kill mid-run (-1 = none)")
		failfrac = fs.Float64("failfrac", 0.5, "fraction of the run routed before the kill")
		workers  = fs.Int("workers", 0, "concurrent host executors (0 = one per host; results identical)")
		windows  = fs.Int("windows", 8, "virtual-time windows in the breakdown")
		seed     = fs.Uint64("seed", 42, "RNG seed")
		scale    = fs.Float64("scale", 3e-6, "model capacity scale")
		users    = fs.Int64("users", 2000, "shared user population")
		asJSON   = fs.Bool("json", false, "emit machine-readable results")
		drift    = fs.Float64("drift", 0, "arm a hot-set rotation after this fraction of the measured run (0 = none)")
		adaptOn  = fs.Bool("adapt", false, "attach the adaptive-tiering control loop to every host")
		hotTabs  = fs.Int("hottables", 0, "spotlight user tables per drift phase (0 = stationary traffic)")
		migBW    = fs.Float64("migbw", 16<<20, "adaptive migration bandwidth cap in bytes/s (0 = unpaced)")
		grain    = fs.String("grain", "table", "adaptive migration granularity: table (whole tables) or range (hot row ranges)")
		hyst     = fs.Float64("hysteresis", 0, "incumbent advantage before a swap is scheduled (>= 1; 0 = default 1.3)")
		smooth   = fs.Float64("smoothing", 0, "telemetry EWMA weight of the newest window in [0, 1] (0 = default 0.5)")
		payback  = fs.Float64("payback", 0, "range-mode payback horizon in seconds (0 = default 10)")
		coordOn  = fs.Bool("coord", false, "stagger the fleet's migration windows (requires -adapt): one shared bandwidth cap and wear budget instead of lockstep migration")
		slot     = fs.Duration("slot", 0, "coordinated migration window width per replica (0 = default 50ms)")
		wear     = fs.Float64("wear", 0, "wear-aware packing: rated endurance days accrued per virtual second (0 = wear-unaware)")
		itemTabs = fs.Int("itemtables", 0, "spotlight item tables per drift phase (0 = stationary item side)")
		scorers  = fs.String("scorers", "affinity=1,queue=0.4,migavoid=1.2", "weighted-policy scorer spec: name=weight,... (names: affinity, queue, loadbal, migavoid, wear, fmserved)")
		sloCls   = fs.Int("sloclasses", 0, "partition users into this many SLO classes by sticky hash (0 = untagged)")
		admit    = fs.String("admit", "", "per-class admission spec: name=rate[:burst][:queue|shed],... in class order (empty = no admission control)")
		trace    = fs.String("trace", "", "write the measured run's decision trace as JSONL to this file (requires a single -policy)")
		traceLvl = fs.String("trace-level", "off", "decision-trace level: off, summary, decisions, or counterfactual (-trace implies decisions)")
		cfK      = fs.Int("counterfactual-k", 0, "rejected route alternatives recorded per decision (0 = min(2, hosts-1); must be < -hosts)")
		metrics  = fs.String("metrics", "", "write the measured run's metric series to this file: OpenMetrics text, or JSONL when the name ends in .jsonl (requires a single -policy)")
		metEvery = fs.Duration("metrics-every", 0, "live metrics sampling width in virtual time (0 = default 250ms)")
		cpuProf  = fs.String("cpuprofile", "", "write a wall-clock CPU profile to this file (phases labeled sdm_phase=route+admit/exec/migrate)")
		memProf  = fs.String("memprofile", "", "write a heap profile to this file at exit")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	granularity := adapt.Tables
	switch *grain {
	case "table":
	case "range":
		granularity = adapt.Ranges
	default:
		return fmt.Errorf("-grain must be table or range, got %q", *grain)
	}
	acfg := adapt.Config{
		BandwidthBytesPerSec: *migBW,
		Hysteresis:           *hyst,
		Smoothing:            *smooth,
		Granularity:          granularity,
		PaybackSeconds:       *payback,
		WearDaysPerSecond:    *wear,
	}
	switch {
	case *hosts <= 0:
		return fmt.Errorf("-hosts must be positive, got %d", *hosts)
	case *queries <= 0:
		return fmt.Errorf("-queries must be positive, got %d", *queries)
	case !(*qps > 0) || math.IsInf(*qps, 0):
		return fmt.Errorf("-qps must be positive and finite, got %g", *qps)
	case *windows <= 0:
		return fmt.Errorf("-windows must be positive, got %d", *windows)
	case *workers < 0:
		return fmt.Errorf("-workers must be >= 0, got %d", *workers)
	case !(*scale > 0 && *scale <= 1):
		return fmt.Errorf("-scale must be in (0, 1], got %g", *scale)
	case *users <= 0:
		return fmt.Errorf("-users must be positive, got %d", *users)
	case *fail >= 0 && !(*failfrac > 0 && *failfrac <= 1):
		return fmt.Errorf("-failfrac must be in (0, 1], got %g", *failfrac)
	case !(*drift >= 0 && *drift <= 1):
		return fmt.Errorf("-drift must be in [0, 1], got %g", *drift)
	case *hotTabs < 0:
		return fmt.Errorf("-hottables must be >= 0, got %d", *hotTabs)
	case *itemTabs < 0:
		return fmt.Errorf("-itemtables must be >= 0, got %d", *itemTabs)
	case *coordOn && !*adaptOn:
		return fmt.Errorf("-coord requires -adapt")
	case *slot < 0:
		return fmt.Errorf("-slot must be >= 0 (0 = default 50ms), got %v", *slot)
	case *sloCls < 0:
		return fmt.Errorf("-sloclasses must be >= 0, got %d", *sloCls)
	}
	// The adapt subsystem owns the contract for its own knobs (-migbw,
	// -hysteresis, -smoothing, -payback): surface its validation errors at
	// flag time instead of after model build.
	if err := acfg.Validate(); err != nil {
		return err
	}
	// Trace flags validate at flag-parse time like -scorers/-admit: an
	// unknown level or an out-of-range -counterfactual-k is a clear error
	// here, never a silent clamp after the model builds.
	level, err := obs.ParseLevel(*traceLvl)
	if err != nil {
		return err
	}
	if *trace != "" && level == obs.LevelOff {
		level = obs.LevelDecisions
	}
	switch {
	case *cfK < 0:
		return fmt.Errorf("-counterfactual-k must be >= 0 (0 = min(2, hosts-1)), got %d", *cfK)
	case *cfK > *hosts-1:
		return fmt.Errorf("-counterfactual-k %d exceeds the %d rejected alternatives a %d-host fleet can have", *cfK, *hosts-1, *hosts)
	case *trace != "" && *policy == "all":
		return fmt.Errorf("-trace writes one run's trace; pick a single -policy, not %q", *policy)
	case *metrics != "" && *policy == "all":
		return fmt.Errorf("-metrics writes one run's series; pick a single -policy, not %q", *policy)
	case *metEvery < 0:
		return fmt.Errorf("-metrics-every must be >= 0 (0 = default 250ms), got %v", *metEvery)
	}
	tcfg := obs.Config{Level: level, CounterfactualK: *cfK}

	if *cpuProf != "" {
		pf, err := os.Create(*cpuProf)
		if err != nil {
			return err
		}
		if err := pprof.StartCPUProfile(pf); err != nil {
			pf.Close()
			return err
		}
		defer func() {
			pprof.StopCPUProfile()
			pf.Close()
		}()
	}

	policies, err := pickPolicies(*policy, *hosts, *scorers)
	if err != nil {
		return err
	}
	var gate *cluster.AdmitConfig
	if *admit != "" {
		cfg, err := cluster.ParseAdmit(*admit)
		if err != nil {
			return err
		}
		gate = &cfg
	}

	// The experiment-scale model: M1 shape with trimmed table counts.
	cfg := model.M1()
	cfg.NumUserTables = 8
	cfg.NumItemTables = 4
	cfg.ItemBatch = 8
	cfg.NumMLPLayers = 4
	cfg.AvgMLPWidth = 64
	inst, err := model.Build(cfg, *scale*50, *seed)
	if err != nil {
		return err
	}
	tables, err := inst.Materialize()
	if err != nil {
		return err
	}

	scfg := core.Config{
		Seed: *seed, SMTech: blockdev.NandFlash,
		Ring: uring.Config{SGL: true}, CacheBytes: 1 << 20,
	}
	if *adaptOn {
		// Adaptive tiering needs swappable tables and an FM budget for the
		// controller to spend: a third of the user-side bytes.
		var userBytes int64
		for _, s := range inst.UserTables() {
			userBytes += s.SizeBytes()
		}
		scfg.ReserveSM = true
		scfg.Placement = placement.Config{
			Policy: placement.FixedFMWithCache, UserTablesOnly: true,
			DRAMBudget: userBytes / 3,
		}
	}
	hcfg := serving.Config{Spec: serving.HWSS(), InterOp: true}
	wcfg := workload.Config{Seed: *seed, NumUsers: *users, UserAlpha: 0.8, SLOClasses: *sloCls}
	if *hotTabs > 0 || *itemTabs > 0 {
		wcfg.Drift = workload.DriftConfig{HotTables: *hotTabs, HotItemTables: *itemTabs}
	}

	var reports []map[string]any
	for _, p := range policies {
		hs, err := cluster.HostSet(inst, tables, *hosts, &scfg, hcfg)
		if err != nil {
			return err
		}
		var adapters []*adapt.Adapter
		var coord *cluster.Coordinator
		if *adaptOn {
			if *coordOn {
				adapters, coord, err = cluster.AttachCoordinated(hs, acfg, cluster.CoordConfig{
					Slot:                 *slot,
					BandwidthBytesPerSec: *migBW,
				})
			} else {
				adapters, err = cluster.AttachAdaptive(hs, acfg)
			}
			if err != nil {
				return err
			}
		}
		fl, err := cluster.New(hs, p, cluster.Config{
			Seed: *seed, HostWorkers: *workers, Windows: *windows,
		})
		if err != nil {
			return err
		}
		// Feed the fleet's View the migration signals the weighted
		// scorers read (migavoid, wear, fmserved).
		if coord != nil {
			fl.SetCoordinator(coord)
		}
		if adapters != nil {
			fl.SetAdapters(adapters)
		}
		if gate != nil {
			if err := fl.SetAdmission(*gate); err != nil {
				return err
			}
		}
		if level != obs.LevelOff {
			if err := fl.SetTrace(tcfg); err != nil {
				return err
			}
		}
		if *metrics != "" {
			if err := fl.SetMetrics(cluster.MetricsConfig{Every: *metEvery}); err != nil {
				return err
			}
		}
		gen, err := workload.NewGenerator(inst, wcfg)
		if err != nil {
			return err
		}
		fl.SetGenerator(gen)
		if *warm {
			if _, err := fl.Run(*qps, *queries); err != nil {
				return err
			}
		}
		if *fail >= 0 {
			if err := fl.ScheduleFailure(*fail, *failfrac); err != nil {
				return err
			}
		}
		if *drift > 0 {
			if err := fl.ScheduleDrift(*drift); err != nil {
				return err
			}
		}
		res, err := fl.Run(*qps, *queries)
		if err != nil {
			return err
		}
		if *trace != "" {
			tf, err := os.Create(*trace)
			if err != nil {
				return err
			}
			if err := fl.WriteTrace(tf); err != nil {
				tf.Close()
				return err
			}
			if err := tf.Close(); err != nil {
				return err
			}
		}
		if *metrics != "" {
			mf, err := os.Create(*metrics)
			if err != nil {
				return err
			}
			// Format by extension: .jsonl selects the JSONL mirror, anything
			// else the OpenMetrics text exposition. Same samples, same order.
			write := fl.WriteMetrics
			if strings.HasSuffix(*metrics, ".jsonl") {
				write = fl.WriteMetricsJSONL
			}
			if err := write(mf); err != nil {
				mf.Close()
				return err
			}
			if err := mf.Close(); err != nil {
				return err
			}
		}
		if *asJSON {
			rep := jsonReport(res)
			if adapters != nil {
				as := cluster.AdapterStats(adapters)
				rep["adapter"] = map[string]any{
					"evals": as.Evals, "promotions": as.Promotions,
					"demotions": as.Demotions, "migrated_bytes": as.MigratedBytes,
					"range_moves": as.RangeMoves, "aborts": as.Aborts,
					"granularity": granularity.String(),
				}
			}
			reports = append(reports, rep)
			continue
		}
		res.Print(stdout)
		if adapters != nil {
			fmt.Fprintln(stdout, "adaptive:", cluster.AdapterStats(adapters))
		}
		fmt.Fprintln(stdout)
	}
	if *asJSON {
		enc := json.NewEncoder(stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(reports); err != nil {
			return err
		}
	}
	if *memProf != "" {
		mf, err := os.Create(*memProf)
		if err != nil {
			return err
		}
		runtime.GC() // settle the heap so the profile shows live bytes
		if err := pprof.WriteHeapProfile(mf); err != nil {
			mf.Close()
			return err
		}
		return mf.Close()
	}
	return nil
}

func pickPolicies(name string, hosts int, scorers string) ([]cluster.Router, error) {
	weighted := func() (cluster.Router, error) {
		sws, err := cluster.ParseScorers(scorers, hosts)
		if err != nil {
			return nil, err
		}
		return cluster.NewWeightedRouter("weighted", sws...)
	}
	mk := map[string]func() cluster.Router{
		"rr":     func() cluster.Router { return cluster.NewRoundRobin() },
		"loq":    func() cluster.Router { return cluster.NewLeastOutstanding() },
		"sticky": func() cluster.Router { return cluster.NewSticky(hosts, 64) },
	}
	if name == "all" {
		w, err := weighted()
		if err != nil {
			return nil, err
		}
		return []cluster.Router{mk["rr"](), mk["loq"](), mk["sticky"](), w}, nil
	}
	if name == "weighted" {
		w, err := weighted()
		if err != nil {
			return nil, err
		}
		return []cluster.Router{w}, nil
	}
	f, ok := mk[name]
	if !ok {
		return nil, fmt.Errorf("unknown policy %q (rr, loq, sticky, weighted, all)", name)
	}
	return []cluster.Router{f()}, nil
}

// jsonReport flattens a fleet result for -json output.
func jsonReport(r *cluster.Result) map[string]any {
	hosts := make([]map[string]any, len(r.Hosts))
	for i, h := range r.Hosts {
		hosts[i] = map[string]any{
			"id": h.ID, "alive": h.Alive, "queries": h.Queries,
			"qps": h.AchievedQPS, "p99_ms": h.Latency.P99() * 1e3,
			"hit_rate": h.HitRate, "sm_reads": h.SMReads,
			"sm_write_bytes": h.SMWriteBytes, "dwpd_util": h.DWPDUtil,
		}
	}
	var lifetime uint64
	for _, h := range r.Hosts {
		lifetime += h.LifetimeSMWrites
	}
	out := map[string]any{
		"policy": r.Policy, "offered_qps": r.OfferedQPS, "achieved_qps": r.AchievedQPS,
		"queries": r.Queries, "hit_rate": r.HitRate, "fm_served_rate": r.FMServedRate,
		"range_served_rate": r.RangeServedRate,
		"p50_ms":            r.Latency.P50() * 1e3, "p95_ms": r.Latency.P95() * 1e3,
		"p99_ms": r.Latency.P99() * 1e3, "p999_ms": r.Latency.P999() * 1e3,
		"sm_write_bytes": r.SMWriteBytes, "lifetime_sm_write_bytes": lifetime,
		"dwpd_util": r.DWPDUtil,
		"hosts":     hosts,
	}
	if r.DriftFired {
		out["drift_at_s"] = r.DriftAt.Seconds()
	}
	if r.Trace != nil {
		out["trace"] = r.Trace
	}
	if len(r.Classes) > 0 {
		out["shed"] = r.Shed
		out["load_fairness"] = r.LoadFairness
		out["class_fairness"] = r.ClassFairness
		classes := make([]map[string]any, len(r.Classes))
		for i, c := range r.Classes {
			classes[i] = map[string]any{
				"class": c.Class, "name": c.Name,
				"offered": c.Offered, "shed": c.Shed, "delayed": c.Delayed,
				"mean_delay_ms": c.MeanDelay * 1e3,
				"p50_ms":        c.Latency.P50() * 1e3,
				"p99_ms":        c.Latency.P99() * 1e3,
				"p999_ms":       c.Latency.P999() * 1e3,
			}
		}
		out["classes"] = classes
	}
	if r.FailedHost >= 0 {
		out["failed_host"] = r.FailedHost
		out["rerouted_users"] = r.ReroutedUsers
		out["warmup_spike"] = r.WarmupSpike
		out["warmup_hit_drop"] = r.WarmupHitDrop
	}
	return out
}
