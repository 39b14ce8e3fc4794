package experiments

import (
	"fmt"
	"time"

	"sdm/internal/blockdev"
	"sdm/internal/cluster"
	"sdm/internal/core"
	"sdm/internal/embedding"
	"sdm/internal/model"
	"sdm/internal/placement"
	"sdm/internal/power"
	"sdm/internal/serving"
	"sdm/internal/uring"
	"sdm/internal/workload"
)

// hostQPS measures one host over the given store/flat tables — a fleet of
// one — and returns its max QPS at a p95 latency budget with the result of
// that probe.
func hostQPS(sc Scale, inst *model.Instance, tables []*embedding.Table, scfg *core.Config, hcfg serving.Config, budget time.Duration, hiQPS float64) (float64, *cluster.Result, error) {
	hosts, err := cluster.HostSet(inst, tables, 1, scfg, hcfg)
	if err != nil {
		return 0, nil, err
	}
	fl, err := cluster.New(hosts, cluster.NewRoundRobin(), cluster.Config{Seed: sc.Seed})
	if err != nil {
		return 0, nil, err
	}
	gen, err := workload.NewGenerator(inst, workload.Config{Seed: sc.Seed, NumUsers: 1000})
	if err != nil {
		return 0, nil, err
	}
	fl.SetGenerator(gen)
	// Warmup pass at modest load so caches reach steady state (§A.4).
	if _, err := fl.Run(50, sc.Queries/2+50); err != nil {
		return 0, nil, err
	}
	return fl.MaxQPSAtLatency(0.95, budget, 5, hiQPS, sc.Queries/2+100)
}

// scenarioModel builds the shrunken shape of one of the paper's target
// models: table counts trimmed, dims/PFs/batches preserved.
func scenarioModel(sc Scale, cfg model.Config, userTables, itemTables, itemBatch int) (*model.Instance, []*embedding.Table, error) {
	cfg.NumUserTables = userTables
	cfg.NumItemTables = itemTables
	cfg.ItemBatch = itemBatch
	// Keep the paper's dense-compute shape unless the scenario overrides:
	// CPU-host scenarios are compute-bound (Table 8's 2:1 socket ratio),
	// accelerator scenarios are IO-bound (Table 9).
	cfg.NumMLPLayers = 8
	cfg.AvgMLPWidth = 128
	inst, err := model.Build(cfg, clampScale(sc.ModelScale*30), sc.Seed)
	if err != nil {
		return nil, nil, err
	}
	tables, err := inst.Materialize()
	if err != nil {
		return nil, nil, err
	}
	return inst, tables, nil
}

// scenarioModelMLP is scenarioModel with an explicit dense-stack shape.
func scenarioModelMLP(sc Scale, cfg model.Config, userTables, itemTables, itemBatch, mlpLayers, mlpWidth int) (*model.Instance, []*embedding.Table, error) {
	cfg.NumUserTables = userTables
	cfg.NumItemTables = itemTables
	cfg.ItemBatch = itemBatch
	cfg.NumMLPLayers = mlpLayers
	cfg.AvgMLPWidth = mlpWidth
	inst, err := model.Build(cfg, clampScale(sc.ModelScale*30), sc.Seed)
	if err != nil {
		return nil, nil, err
	}
	tables, err := inst.Materialize()
	if err != nil {
		return nil, nil, err
	}
	return inst, tables, nil
}

// Fig6 compares cache organizations and direct-DRAM placement budgets
// under the InferenceEval-style load the paper uses for Fig. 6.
func Fig6(sc Scale) (Result, error) {
	inst, tables, err := scenarioModel(sc, model.M2(), 8, 4, 8)
	if err != nil {
		return nil, err
	}
	r := &tableResult{id: "fig6"}
	budget := 2 * time.Millisecond

	// Every configuration is an independent simulated host; measure the
	// whole panel concurrently and keep the presentation order.
	kinds := []core.CacheKind{core.CacheMemOptimized, core.CacheCPUOptimized, core.CacheDual}
	fracs := []float64{0, 0.25, 0.5, 1.0}
	kindRows := make([]string, len(kinds))
	fracRows := make([]string, len(fracs))
	smBytes := inst.UserBytes()
	var runs []func() error
	for i, kind := range kinds {
		i, kind := i, kind
		runs = append(runs, func() error {
			scfg := &core.Config{
				// A tight FM budget exposes the per-item overhead trade-off.
				Seed: sc.Seed, CacheKind: kind, CacheBytes: 1 << 20,
				Ring: uring.Config{SGL: true},
			}
			qps, res, err := hostQPS(sc, inst, tables, scfg, serving.Config{Spec: serving.HWSS(), InterOp: true}, budget, 20000)
			if err != nil {
				return err
			}
			kindRows[i] = fmt.Sprintf("  %-14s qps=%6.0f p95=%6.2fms hit=%5.1f%%",
				kind, qps, res.Latency.P95()*1e3, res.HitRate*100)
			return nil
		})
	}
	for i, frac := range fracs {
		i, frac := i, frac
		runs = append(runs, func() error {
			scfg := &core.Config{
				Seed: sc.Seed, CacheBytes: 8 << 20,
				Ring: uring.Config{SGL: true},
				Placement: placement.Config{
					Policy: placement.FixedFMWithCache, UserTablesOnly: true,
					DRAMBudget: int64(frac * float64(smBytes)),
				},
			}
			qps, res, err := hostQPS(sc, inst, tables, scfg, serving.Config{Spec: serving.HWSS(), InterOp: true}, budget, 20000)
			if err != nil {
				return err
			}
			fracRows[i] = fmt.Sprintf("  dram=%3.0f%%ofSM   qps=%6.0f p95=%6.2fms smReads/qry=%5.1f",
				frac*100, qps, res.Latency.P95()*1e3, float64(res.Hosts[0].SMReads)/float64(res.Queries))
			return nil
		})
	}
	if err := inParallel(runs...); err != nil {
		return nil, err
	}
	r.rows = append(r.rows, "cache organization (same FM budget):")
	r.rows = append(r.rows, kindRows...)
	r.rows = append(r.rows, "direct DRAM placement budget (FixedFM policy):")
	r.rows = append(r.rows, fracRows...)
	r.notes = append(r.notes,
		"paper: dual cache routes dim≤255B to memory-optimized; direct DRAM placement can raise QPS considerably")
	return r, nil
}

// Tab8Result carries the measured M1 comparison.
type Tab8Result struct {
	tableResult
	BaselineQPS, SDMQPS float64
	Saving              float64
	HitRate             float64
}

// Tab8 reproduces the M1 scenario: dual-socket DRAM-only HW-L vs
// single-socket HW-SS with SDM on Nand Flash, then fleet power arithmetic.
func Tab8(sc Scale) (Result, error) {
	cfg := model.M1() // keep M1's 31-layer, 300-wide MLP: CPU hosts are compute-bound
	inst, tables, err := scenarioModelMLP(sc, cfg, 8, 4, 16, cfg.NumMLPLayers, cfg.AvgMLPWidth)
	if err != nil {
		return nil, err
	}
	budget := 25 * time.Millisecond

	// The two fleets are independent hosts: measure them concurrently.
	var (
		baseQPS, sdmQPS float64
		sdmRes          *cluster.Result
	)
	err = inParallel(
		func() error {
			// Baseline: all tables flat in DRAM on the big host.
			var err error
			baseQPS, _, err = hostQPS(sc, inst, tables, nil,
				serving.Config{Spec: serving.HWL(), InterOp: true}, budget, 100000)
			return err
		},
		func() error {
			// SDM: user tables on Nand, FM cache, small host.
			scfg := &core.Config{
				Seed: sc.Seed, SMTech: blockdev.NandFlash, CacheBytes: 32 << 20,
				Ring: uring.Config{SGL: true},
			}
			var err error
			sdmQPS, sdmRes, err = hostQPS(sc, inst, tables, scfg,
				serving.Config{Spec: serving.HWSS(), InterOp: true}, budget, 100000)
			return err
		},
	)
	if err != nil {
		return nil, err
	}

	totalQPS := baseQPS * 1200 // fleet demand at the paper's host count
	base, err := power.Provision(power.Scenario{Name: "HW-L", QPSPerHost: baseQPS, HostPower: serving.HWL().RelPower}, totalQPS)
	if err != nil {
		return nil, err
	}
	sdm, err := power.Provision(power.Scenario{Name: "HW-SS+SDM", QPSPerHost: sdmQPS, HostPower: serving.HWSS().RelPower}, totalQPS)
	if err != nil {
		return nil, err
	}
	res := &Tab8Result{
		BaselineQPS: baseQPS, SDMQPS: sdmQPS,
		Saving:  power.Savings(base, sdm),
		HitRate: sdmRes.HitRate,
	}
	res.id = "tab8"
	res.header = fmt.Sprintf("%-14s %8s %8s %12s %12s", "Scenario", "QPS", "Power", "Total Hosts", "Total Power")
	res.rows = append(res.rows,
		fmt.Sprintf("%-14s %8.0f %8.1f %12d %12.0f", "HW-L", baseQPS, serving.HWL().RelPower, base.Hosts, base.TotalPower),
		fmt.Sprintf("%-14s %8.0f %8.1f %12d %12.0f", "HW-SS + SDM", sdmQPS, serving.HWSS().RelPower, sdm.Hosts, sdm.TotalPower),
		fmt.Sprintf("power saving: %.0f%% (paper: 20%%)", res.Saving*100),
		fmt.Sprintf("steady-state cache hit rate: %.1f%% (paper: >96%%)", res.HitRate*100),
		fmt.Sprintf("sustained SM IOPS/host: %.0f (paper: <10K in steady state)", float64(sdmRes.Hosts[0].SMReads)/(sdmRes.End-sdmRes.Start).Seconds()),
		fmt.Sprintf("DRAM saved at fleet scale: %.1f TB-equivalent (paper: 159.4 TB)",
			float64(power.DRAMSavedBytes(base.Hosts, serving.HWL().DRAMBytes, sdm.Hosts, serving.HWSS().DRAMBytes))/(1<<40)),
	)
	return res, nil
}

// Tab9Result carries the measured M2 comparison.
type Tab9Result struct {
	tableResult
	OptaneSaving float64
	NandQPS      float64
	OptaneQPS    float64
}

// Tab9 reproduces the M2 scenario: accelerator host with scale-out user
// shards vs SDM on Nand vs SDM on Optane.
func Tab9(sc Scale) (Result, error) {
	inst, tables, err := scenarioModel(sc, model.M2(), 10, 5, 16)
	if err != nil {
		return nil, err
	}
	budget := 20 * time.Millisecond

	// Three independent fleets: measure them concurrently.
	var (
		scaleOutQPS, nandQPS, optQPS float64
		optRes                       *cluster.Result
	)
	err = inParallel(
		func() error {
			var err error
			scaleOutQPS, _, err = hostQPS(sc, inst, tables, nil,
				serving.Config{Spec: serving.HWAN(), InterOp: true, RemoteUserPath: true}, budget, 200000)
			return err
		},
		func() error {
			nandCfg := &core.Config{Seed: sc.Seed, SMTech: blockdev.NandFlash, CacheBytes: 8 << 20, Ring: uring.Config{SGL: true}}
			var err error
			nandQPS, _, err = hostQPS(sc, inst, tables, nandCfg,
				serving.Config{Spec: serving.HWAN(), InterOp: true}, budget, 200000)
			return err
		},
		func() error {
			optCfg := &core.Config{Seed: sc.Seed, SMTech: blockdev.OptaneSSD, CacheBytes: 8 << 20, Ring: uring.Config{SGL: true}}
			var err error
			optQPS, optRes, err = hostQPS(sc, inst, tables, optCfg,
				serving.Config{Spec: serving.HWAO(), InterOp: true}, budget, 200000)
			return err
		},
	)
	if err != nil {
		return nil, err
	}

	totalQPS := scaleOutQPS * 1500
	so, err := power.Provision(power.Scenario{
		Name: "HW-AN+ScaleOut", QPSPerHost: scaleOutQPS, HostPower: 1.0,
		CompanionPowerPerHost: 0.05, CompanionHostsPerHost: 0.2,
	}, totalQPS)
	if err != nil {
		return nil, err
	}
	nand, err := power.Provision(power.Scenario{Name: "HW-AN+SDM", QPSPerHost: nandQPS, HostPower: 1.0}, totalQPS)
	if err != nil {
		return nil, err
	}
	opt, err := power.Provision(power.Scenario{Name: "HW-AO+SDM", QPSPerHost: optQPS, HostPower: 1.0}, totalQPS)
	if err != nil {
		return nil, err
	}
	res := &Tab9Result{
		OptaneSaving: power.Savings(so, opt),
		NandQPS:      nandQPS,
		OptaneQPS:    optQPS,
	}
	res.id = "tab9"
	res.header = fmt.Sprintf("%-18s %8s %12s %12s", "Scenario", "QPS", "Total Hosts", "Total Power")
	res.rows = append(res.rows,
		fmt.Sprintf("%-18s %8.0f %12d %12.0f", "HW-AN + ScaleOut", scaleOutQPS, so.Hosts+so.Companions, so.TotalPower),
		fmt.Sprintf("%-18s %8.0f %12d %12.0f", "HW-AN + SDM", nandQPS, nand.Hosts, nand.TotalPower),
		fmt.Sprintf("%-18s %8.0f %12d %12.0f", "HW-AO + SDM", optQPS, opt.Hosts, opt.TotalPower),
		fmt.Sprintf("Optane saving vs scale-out: %.1f%% (paper: 5%%)", res.OptaneSaving*100),
		fmt.Sprintf("Optane SM hit rate: %.1f%% (paper: >90%%)", optRes.HitRate*100),
	)
	res.notes = append(res.notes,
		"paper: Nand underperforms (QPS 230 vs 450) because its latency forces underutilization; Optane matches scale-out QPS at lower power")
	return res, nil
}

// Tab10 reproduces the M3 SM sizing roofline.
func Tab10(sc Scale) (Result, error) {
	in := power.SizingInput{
		QPS: 3150, UserTables: 2000, PoolingPF: 30,
		EmbDimBytes: 512, CacheHitRate: 0.80, Device: blockdev.OptaneSSD,
	}
	out, err := power.Size(in)
	if err != nil {
		return nil, err
	}
	r := &tableResult{
		id:     "tab10",
		header: fmt.Sprintf("%-8s %8s %8s %6s %10s %10s %10s %8s", "Model", "QPS", "Tables", "PF", "HitRate", "ColdIOPS", "SustIOPS", "numSSD"),
	}
	r.rows = append(r.rows, fmt.Sprintf("%-8s %8.0f %8d %6.0f %9.0f%% %10.1fM %10.1fM %8d",
		"M3", in.QPS, in.UserTables, in.PoolingPF, in.CacheHitRate*100,
		out.ColdIOPS/1e6, out.SustainedIOPS/1e6, out.NumSSDs))
	r.notes = append(r.notes, "paper: 36 MIOPS satisfied by 9 Optane SSDs at 4 MIOPS each")
	return r, nil
}

// Tab11 reproduces the multi-tenancy fleet-power roofline.
func Tab11(sc Scale) (Result, error) {
	in := power.MultiTenancyInput{
		HostDRAMBytes:         128 << 30,
		HostSMBytes:           300 << 30,
		ModelDRAMBytes:        100 << 30,
		ModelComputeFrac:      0.09,
		BaseUtilization:       0.54,
		BasePower:             1.0,
		SDMExtraPower:         0.01,
		NonEmbeddingDRAMBytes: 28 << 30,
	}
	without, with, err := power.MultiTenancy(in)
	if err != nil {
		return nil, err
	}
	r := &tableResult{
		id:     "tab11",
		header: fmt.Sprintf("%-16s %8s %12s %12s %8s", "Scenario", "Power", "Models/Host", "Utilization", "Fleet"),
	}
	r.rows = append(r.rows,
		fmt.Sprintf("%-16s %8.2f %12d %12.2f %8.2f", "HW-F A", without.HostPower, without.ModelsPerHost, without.Utilization, without.FleetPower),
		fmt.Sprintf("%-16s %8.2f %12d %12.2f %8.2f", "HW-F AO + SDM", with.HostPower, with.ModelsPerHost, with.Utilization, with.FleetPower),
		fmt.Sprintf("fleet power saving: %.0f%% (paper: up to 29%%)", (1-with.FleetPower)*100),
	)
	return r, nil
}

// DepruneResult carries the §4.5 trade-off measurements.
type DepruneResult struct {
	tableResult
	ExtraRequestFrac float64
	CacheGainFrac    float64
	PerfGain         float64
}

// Deprune compares pruned (mapper in FM) against de-pruned at load.
func Deprune(sc Scale) (Result, error) {
	// Pruned rows are rarely referenced in production ("the pruned
	// embeddings are also less frequently accessed"); a low ZeroFrac
	// models that, while the mapper footprint — NumRows × 4 B — stays
	// large regardless of how many rows were pruned.
	cfg := model.M1()
	cfg.ZeroFrac = 0.05
	inst, tables, err := scenarioModel(sc, cfg, 8, 4, 8)
	if err != nil {
		return nil, err
	}
	// A cache budget comparable to the mapper footprint makes the
	// mapper-vs-cache trade-off visible (the paper's "up to 2x cache").
	mk := func(deprune bool) core.Config {
		return core.Config{
			Seed: sc.Seed, Prune: true, Deprune: deprune,
			CacheBytes: 600 << 10, Ring: uring.Config{SGL: true},
		}
	}
	var pruned, depruned *storeRun
	err = inParallel(
		func() (err error) { pruned, err = runStoreTraceOn(sc, mk(false), inst, tables); return },
		func() (err error) { depruned, err = runStoreTraceOn(sc, mk(true), inst, tables); return },
	)
	if err != nil {
		return nil, err
	}
	// §4.5 counts "increase in the total requests": lookups that reach
	// the cache/SM fetch path. Pruned stores skip pruned rows via the
	// mapper; de-pruned stores fetch them.
	pReq := float64(pruned.store.Lookups - pruned.store.MapperSkips)
	dReq := float64(depruned.store.Lookups)
	res := &DepruneResult{
		ExtraRequestFrac: dReq/pReq - 1,
		CacheGainFrac:    float64(depruned.store.EffCacheBytes)/float64(pruned.store.EffCacheBytes) - 1,
		PerfGain:         pruned.meanIOLatency.Seconds()/depruned.meanIOLatency.Seconds() - 1,
	}
	res.id = "deprune"
	res.rows = []string{
		fmt.Sprintf("mapper FM footprint (pruned):   %8d B (charged against cache)", pruned.store.MapperFMBytes),
		fmt.Sprintf("effective cache, pruned:        %8d B", pruned.store.EffCacheBytes),
		fmt.Sprintf("effective cache, de-pruned:     %8d B (+%.0f%%; paper: up to 2x)", depruned.store.EffCacheBytes, res.CacheGainFrac*100),
		fmt.Sprintf("extra row requests from de-prune: %+5.1f%% (paper: +2.5%%)", res.ExtraRequestFrac*100),
		fmt.Sprintf("zero-row reads (cache pollution): %d", depruned.store.ZeroRowReads),
		fmt.Sprintf("user-path latency gain:          %+6.1f%% (paper: up to +48%% when SM-bound)", res.PerfGain*100),
	}
	return res, nil
}

// DequantResult carries the §A.5 trade-off measurements.
type DequantResult struct {
	tableResult
	SMGrowth     float64
	HitRateDelta float64
	CPUDeltaFrac float64
}

// Dequant compares de-quantization at load time against on-the-fly
// dequantization.
func Dequant(sc Scale) (Result, error) {
	inst, tables, err := scenarioModel(sc, model.M1(), 8, 4, 8)
	if err != nil {
		return nil, err
	}
	mk := func(dq bool) core.Config {
		return core.Config{
			Seed: sc.Seed, DequantAtLoad: dq,
			CacheBytes: 2 << 20, Ring: uring.Config{SGL: true},
		}
	}
	var base, dq *storeRun
	err = inParallel(
		func() (err error) { base, err = runStoreTraceOn(sc, mk(false), inst, tables); return },
		func() (err error) { dq, err = runStoreTraceOn(sc, mk(true), inst, tables); return },
	)
	if err != nil {
		return nil, err
	}
	res := &DequantResult{
		SMGrowth:     float64(dq.store.LoadSMBytes)/float64(base.store.LoadSMBytes) - 1,
		HitRateDelta: dq.cache.HitRate() - base.cache.HitRate(),
		CPUDeltaFrac: dq.cpuPerQuery.Seconds()/base.cpuPerQuery.Seconds() - 1,
	}
	res.id = "dequant"
	res.rows = []string{
		fmt.Sprintf("SM footprint growth (int8→fp32):  %+5.0f%% (capacity is cheap on SM)", res.SMGrowth*100),
		fmt.Sprintf("FM cache hit rate: quantized %.1f%% vs dequantized %.1f%% (Δ %+0.1fpp)",
			base.cache.HitRate()*100, dq.cache.HitRate()*100, res.HitRateDelta*100),
		fmt.Sprintf("CPU per query delta:              %+5.1f%%", res.CPUDeltaFrac*100),
	}
	res.notes = append(res.notes,
		"paper: fewer rows fit the cache after expansion, so de-quantization rarely wins except under CPU-bound loads")
	return res, nil
}

// InterOpResult carries the §A.2 ablation.
type InterOpResult struct {
	tableResult
	LatencyReduction float64
	QPSGain          float64
}

// InterOp measures inter-operator parallelism: serial vs concurrent
// embedding-op issue.
func InterOp(sc Scale) (Result, error) {
	inst, tables, err := scenarioModel(sc, model.M1(), 8, 4, 8)
	if err != nil {
		return nil, err
	}
	budget := 25 * time.Millisecond
	run := func(interOp bool) (float64, *cluster.Result, error) {
		scfg := &core.Config{Seed: sc.Seed, CacheBytes: 4 << 20, Ring: uring.Config{SGL: true}}
		return hostQPS(sc, inst, tables, scfg,
			serving.Config{Spec: serving.HWSS(), InterOp: interOp}, budget, 20000)
	}
	var (
		serialQPS, parQPS float64
		serialRes, parRes *cluster.Result
	)
	err = inParallel(
		func() (err error) { serialQPS, serialRes, err = run(false); return },
		func() (err error) { parQPS, parRes, err = run(true); return },
	)
	if err != nil {
		return nil, err
	}
	res := &InterOpResult{
		LatencyReduction: 1 - parRes.Latency.Mean()/serialRes.Latency.Mean(),
		QPSGain:          parQPS/serialQPS - 1,
	}
	res.id = "interop"
	res.rows = []string{
		fmt.Sprintf("serial ops:   qps=%6.0f meanLat=%6.2fms", serialQPS, serialRes.Latency.Mean()*1e3),
		fmt.Sprintf("inter-op par: qps=%6.0f meanLat=%6.2fms", parQPS, parRes.Latency.Mean()*1e3),
		fmt.Sprintf("latency reduction %.0f%%, QPS gain %.0f%% (paper: 20%% / 20%% on M1)",
			res.LatencyReduction*100, res.QPSGain*100),
	}
	return res, nil
}

// Warmup prints the §A.4 over-provisioning model.
func Warmup(sc Scale) (Result, error) {
	r := &tableResult{
		id:     "warmup",
		header: fmt.Sprintf("%-10s %-10s %-10s %-10s %12s", "r(update)", "warmup", "perf", "interval", "overprov"),
	}
	cases := []struct {
		r, p float64
		w, t time.Duration
	}{
		{0.10, 0.50, 5 * time.Minute, 30 * time.Minute},
		{0.10, 0.50, 2 * time.Minute, 30 * time.Minute},
		{0.05, 0.75, 5 * time.Minute, 60 * time.Minute},
	}
	for _, c := range cases {
		ov := core.WarmupOverprovision(c.r, c.p, c.w, c.t)
		r.rows = append(r.rows, fmt.Sprintf("%-10.2f %-10v %-10.2f %-10v %11.2f%%",
			c.r, c.w, c.p, c.t, ov*100))
	}
	r.notes = append(r.notes, "paper's worked example quotes 1.2% for (10%,5min,50%,30min); the formula (r·w)/(p·t) gives 3.3% — both shown")
	return r, nil
}

// Update measures the §A.3 model-update paths and §3 endurance limits.
func Update(sc Scale) (Result, error) {
	inst, tables, err := scenarioModel(sc, model.M1(), 6, 3, 8)
	if err != nil {
		return nil, err
	}
	r := &tableResult{id: "update"}
	for _, tech := range []blockdev.Technology{blockdev.NandFlash, blockdev.OptaneSSD} {
		s, err := core.Open(inst, tables, core.Config{
			Seed: sc.Seed, SMTech: tech, Ring: uring.Config{SGL: true}, CacheBytes: 4 << 20,
		}, nil)
		if err != nil {
			return nil, err
		}
		// Online update of 100 rows, then write-back.
		now := s.LoadDone()
		spec := inst.Tables[0]
		val := make([]byte, spec.RowBytes())
		for i := int64(0); i < 100 && i < spec.Rows; i++ {
			if _, err := s.UpdateRow(now, 0, i, val, core.UpdateOnline); err != nil {
				return nil, err
			}
		}
		flushDone, err := s.FlushUpdates(now)
		if err != nil {
			return nil, err
		}
		r.rows = append(r.rows, fmt.Sprintf("%-22s load=%8v  flush(100 rows)=%8v  min update interval=%v",
			tech, s.Stats().LoadDuration.Round(time.Millisecond),
			(flushDone-now).Duration().Round(time.Microsecond),
			s.UpdateIntervalLimit().Round(time.Second)))
	}
	r.notes = append(r.notes,
		"§A.3: online updates land in the cache first and write back to SM; §3: endurance bounds the update interval (Optane ≫ Nand)")
	return r, nil
}
