// Benchmarks regenerating every table and figure of the paper's evaluation
// (one Benchmark per artifact, backed by internal/experiments) plus
// functional microbenchmarks of the SDM hot paths. Run:
//
//	go test -bench=. -benchmem
//
// The experiment benchmarks attach their headline numbers as custom
// metrics (hit rates, savings, ratios) so `-bench` output doubles as a
// compact reproduction report; `cmd/sdmbench` prints the full rows.
package sdm

import (
	"io"
	"testing"
	"time"

	"sdm/internal/cluster"
	"sdm/internal/experiments"
	"sdm/internal/simclock"
)

func runExperiment(b *testing.B, id string) experiments.Result {
	b.Helper()
	var last experiments.Result
	for i := 0; i < b.N; i++ {
		res, err := experiments.Run(id, experiments.Default())
		if err != nil {
			b.Fatalf("%s: %v", id, err)
		}
		last = res
	}
	return last
}

// BenchmarkFig1_SizeVsBandwidth regenerates Fig. 1's size-vs-BW inventory.
func BenchmarkFig1_SizeVsBandwidth(b *testing.B) {
	res := runExperiment(b, "fig1").(*experiments.Fig1Result)
	b.ReportMetric(res.LowBWCapacityFrac, "lowBWcapFrac")
}

// BenchmarkTab1_TechnologyCatalog regenerates Table 1.
func BenchmarkTab1_TechnologyCatalog(b *testing.B) { runExperiment(b, "tab1") }

// BenchmarkFig3_DeviceProfile regenerates Fig. 3's IOPS/latency curves.
func BenchmarkFig3_DeviceProfile(b *testing.B) {
	res := runExperiment(b, "fig3").(*experiments.Fig3Result)
	nand := res.Curves["PCIe Nand Flash"]
	opt := res.Curves["PCIe 3DXP (Optane)"]
	if len(nand) > 0 && len(opt) > 0 {
		b.ReportMetric(nand[0].MeanLatency.Seconds()*1e6, "nandLat_us")
		b.ReportMetric(opt[0].MeanLatency.Seconds()*1e6, "optaneLat_us")
	}
}

// BenchmarkTab2_Usecases regenerates Table 2's usecase configs.
func BenchmarkTab2_Usecases(b *testing.B) { runExperiment(b, "tab2") }

// BenchmarkFig4_TemporalLocality regenerates Fig. 4's CDFs.
func BenchmarkFig4_TemporalLocality(b *testing.B) {
	res := runExperiment(b, "fig4").(*experiments.Fig4Result)
	if len(res.UserCDF) > 4 {
		b.ReportMetric(res.UserCDF[4], "userCDF@10%rows")
		b.ReportMetric(res.ItemCDF[4], "itemCDF@10%rows")
	}
}

// BenchmarkFig5_SpatialLocality regenerates Fig. 5's metric.
func BenchmarkFig5_SpatialLocality(b *testing.B) {
	res := runExperiment(b, "fig5").(*experiments.Fig5Result)
	b.ReportMetric(res.AvgUser, "userSpatial")
	b.ReportMetric(res.AvgItem, "itemSpatial")
}

// BenchmarkFig6_CacheOrg regenerates Fig. 6's cache-organization study.
func BenchmarkFig6_CacheOrg(b *testing.B) { runExperiment(b, "fig6") }

// BenchmarkTab3_PooledProfile regenerates Table 3.
func BenchmarkTab3_PooledProfile(b *testing.B) { runExperiment(b, "tab3") }

// BenchmarkTab4_LenThreshold regenerates Table 4.
func BenchmarkTab4_LenThreshold(b *testing.B) { runExperiment(b, "tab4") }

// BenchmarkTab8_M1Power regenerates Table 8.
func BenchmarkTab8_M1Power(b *testing.B) {
	res := runExperiment(b, "tab8").(*experiments.Tab8Result)
	b.ReportMetric(res.Saving*100, "powerSaving%")
	b.ReportMetric(res.HitRate*100, "cacheHit%")
}

// BenchmarkTab9_M2Power regenerates Table 9.
func BenchmarkTab9_M2Power(b *testing.B) {
	res := runExperiment(b, "tab9").(*experiments.Tab9Result)
	b.ReportMetric(res.OptaneQPS/res.NandQPS, "optane/nandQPS")
}

// BenchmarkTab10_M3Sizing regenerates Table 10.
func BenchmarkTab10_M3Sizing(b *testing.B) { runExperiment(b, "tab10") }

// BenchmarkTab11_MultiTenancy regenerates Table 11.
func BenchmarkTab11_MultiTenancy(b *testing.B) { runExperiment(b, "tab11") }

// BenchmarkSGL_SmallGranularity regenerates §4.1.1's savings.
func BenchmarkSGL_SmallGranularity(b *testing.B) {
	res := runExperiment(b, "sgl").(*experiments.SGLResult)
	b.ReportMetric(res.BusSavings*100, "busSaved%")
	b.ReportMetric(res.FMTrafficRatio, "fmTrafficRatio")
}

// BenchmarkMmapVsDirect regenerates the §4.1 mmap comparison.
func BenchmarkMmapVsDirect(b *testing.B) {
	res := runExperiment(b, "mmap").(*experiments.MmapResult)
	b.ReportMetric(res.LatencyRatio, "mmap/directLat")
}

// BenchmarkDeprune regenerates the §4.5 trade-off.
func BenchmarkDeprune(b *testing.B) {
	res := runExperiment(b, "deprune").(*experiments.DepruneResult)
	b.ReportMetric(res.ExtraRequestFrac*100, "extraReq%")
	b.ReportMetric(res.CacheGainFrac*100, "cacheGain%")
}

// BenchmarkDequantAtLoad regenerates the §A.5 trade-off.
func BenchmarkDequantAtLoad(b *testing.B) {
	res := runExperiment(b, "dequant").(*experiments.DequantResult)
	b.ReportMetric(res.SMGrowth*100, "smGrowth%")
}

// BenchmarkInterOp regenerates §A.2's inter-op parallelism ablation.
func BenchmarkInterOp(b *testing.B) {
	res := runExperiment(b, "interop").(*experiments.InterOpResult)
	b.ReportMetric(res.LatencyReduction*100, "latencySaved%")
}

// BenchmarkPolling regenerates §A.1's polling-vs-IRQ comparison.
func BenchmarkPolling(b *testing.B) {
	res := runExperiment(b, "polling").(*experiments.PollingResult)
	b.ReportMetric(res.Gain*100, "iopsPerCoreGain%")
}

// BenchmarkWarmupModel regenerates the §A.4 over-provision model.
func BenchmarkWarmupModel(b *testing.B) { runExperiment(b, "warmup") }

// BenchmarkModelUpdate regenerates the §A.3/§3 update-path study.
func BenchmarkModelUpdate(b *testing.B) { runExperiment(b, "update") }

// fleetBench is the fixture the fleet benchmarks share: the trimmed M1
// model, materialized once per benchmark. Everything a benchmark does not
// mean to measure — hosts, fleet, generator, one warming Run — is built by
// warmFleet outside the timer, so ns/op is Fleet.Run alone.
type fleetBench struct {
	inst   *Instance
	tables []*Table
}

// fleetShape is one benchmark's fleet size, population and Run shape.
type fleetShape struct {
	hosts int
	users int64
	qps   float64
	n     int
}

// routingShape is the 4-host fixture of the three routing benchmarks.
var routingShape = fleetShape{hosts: 4, users: 800, qps: 2000, n: 600}

func newFleetBench(b *testing.B) fleetBench {
	b.Helper()
	cfg := M1()
	cfg.NumUserTables = 5
	cfg.NumItemTables = 3
	cfg.ItemBatch = 4
	cfg.TotalBytes = 1 << 21
	cfg.NumMLPLayers = 4
	cfg.AvgMLPWidth = 64
	inst, err := Build(cfg, 1, 31)
	if err != nil {
		b.Fatal(err)
	}
	tables, err := inst.Materialize()
	if err != nil {
		b.Fatal(err)
	}
	return fleetBench{inst, tables}
}

// weighted6 is the six-scorer router: every scorer the registry knows.
func weighted6(b *testing.B, hosts int) Router {
	b.Helper()
	sws, err := ParseScorers(
		"affinity=1,queue=0.4,loadbal=0.1,migavoid=1.2,wear=0.2,fmserved=0.3", hosts)
	if err != nil {
		b.Fatal(err)
	}
	r, err := NewWeightedRouter("weighted6", sws...)
	if err != nil {
		b.Fatal(err)
	}
	return r
}

// warmFleet builds the shape's fleet behind router, applies the planes under
// test (configure may be nil) and warms it with one Run.
func (fx fleetBench) warmFleet(b *testing.B, sh fleetShape, router Router, configure func(*cluster.Fleet) error) *cluster.Fleet {
	b.Helper()
	scfg := Config{Seed: 31, Ring: RingConfig{SGL: true}, CacheBytes: 1 << 15}
	hs, err := NewFleetHosts(fx.inst, fx.tables, sh.hosts, &scfg, HostConfig{
		Spec: HWSS(), InterOp: true,
	})
	if err != nil {
		b.Fatal(err)
	}
	fl, err := NewFleet(hs, router, FleetConfig{Seed: 31})
	if err != nil {
		b.Fatal(err)
	}
	if configure != nil {
		if err := configure(fl); err != nil {
			b.Fatal(err)
		}
	}
	gen, err := NewGenerator(fx.inst, WorkloadConfig{Seed: 31, NumUsers: sh.users, UserAlpha: 0.8})
	if err != nil {
		b.Fatal(err)
	}
	fl.SetGenerator(gen)
	if _, err := fl.Run(sh.qps, sh.n); err != nil {
		b.Fatal(err)
	}
	return fl
}

// timeRuns is the timed section of every fleet benchmark: b.N back-to-back
// Runs on the warm fleet (each continues in virtual time, caches warm). It
// reports wall µs per simulated query and simulated queries per wall
// second beside the last Run's virtual p99, and returns that Run's result.
func timeRuns(b *testing.B, fl *cluster.Fleet, sh fleetShape) *FleetResult {
	b.Helper()
	var res *FleetResult
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var err error
		if res, err = fl.Run(sh.qps, sh.n); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	queries, secs := float64(b.N)*float64(sh.n), b.Elapsed().Seconds()
	b.ReportMetric(secs*1e6/queries, "us/query")
	b.ReportMetric(queries/secs, "sim_queries/s")
	b.ReportMetric(res.Latency.P99()*1e6, "p99_us")
	return res
}

// BenchmarkFleetRouting is the wall-clock cost of routing: the same warm
// 4-host fleet and population routed by the single-scorer sticky config
// (queued execution: hosts run on HostWorkers behind the front-end) versus
// the six-scorer weighted router (a Feedback() router: every job executes
// inline on the front-end before the next decision). The us/query gap is
// scoring plus the parallelism a barrier'd run cannot use.
func BenchmarkFleetRouting(b *testing.B) {
	fx, sh := newFleetBench(b), routingShape
	for _, pol := range []struct {
		name   string
		router Router // one fleet each
	}{
		{"sticky", NewSticky(sh.hosts, 64)},
		{"weighted6", weighted6(b, sh.hosts)},
	} {
		b.Run("policy="+pol.name, func(b *testing.B) {
			timeRuns(b, fx.warmFleet(b, sh, pol.router, nil), sh)
		})
	}
}

// BenchmarkFleetRoutingTraced measures the decision-trace layer's
// wall-clock overhead on the BenchmarkFleetRouting weighted fixture:
// trace=off is the guarded zero-overhead path (SetTrace never called,
// identical to BenchmarkFleetRouting/policy=weighted6), trace=
// counterfactual collects every route decision with top-k alternatives
// and runs the completion-time re-scoring pass. Both rows execute inline,
// so the gap is collection alone; virtual-time results are identical —
// tracing never perturbs the simulation.
func BenchmarkFleetRoutingTraced(b *testing.B) {
	fx, sh := newFleetBench(b), routingShape
	for _, level := range []TraceLevel{TraceOff, TraceCounterfactual} {
		b.Run("trace="+level.String(), func(b *testing.B) {
			fl := fx.warmFleet(b, sh, weighted6(b, sh.hosts), func(fl *cluster.Fleet) error {
				return fl.SetTrace(TraceConfig{Level: level}) // TraceOff detaches: the nil path
			})
			if res := timeRuns(b, fl, sh); res.Trace != nil {
				b.ReportMetric(float64(res.Trace.Events), "traceEvents")
			}
		})
	}
}

// BenchmarkFleetRoutingMetered measures the metrics plane's wall-clock
// overhead on the BenchmarkFleetRouting weighted fixture: metrics=off is
// the guarded zero-overhead path (SetMetrics never called — nil meter,
// nothing allocated on the hot paths), metrics=on samples every host and
// front-end instrument on 250ms virtual boundaries. Rendering happens once,
// after the timer, to keep both export formats exercised. Virtual-time
// results are identical across the rows — metering never perturbs the
// simulation.
func BenchmarkFleetRoutingMetered(b *testing.B) {
	fx, sh := newFleetBench(b), routingShape
	for _, metered := range []bool{false, true} {
		name := "metrics=off"
		if metered {
			name = "metrics=on"
		}
		b.Run(name, func(b *testing.B) {
			fl := fx.warmFleet(b, sh, weighted6(b, sh.hosts), func(fl *cluster.Fleet) error {
				if !metered {
					return nil
				}
				return fl.SetMetrics(MetricsConfig{})
			})
			timeRuns(b, fl, sh)
			if metered {
				if err := fl.WriteMetrics(io.Discard); err != nil {
					b.Fatal(err)
				}
				if err := fl.WriteMetricsJSONL(io.Discard); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkFleetScale is the scale-up campaign's wall-clock anchor: one
// warm 64-replica metered sticky fleet, 2000 queries per Run. Virtual-time
// results are seed-deterministic; us/query, B/op and allocs/op track what a
// big-fleet campaign costs the simulator host per steady-state Run. It is
// the one place fleet wall clock at scale is measured: `sdmbench` reports
// virtual time only, and the per-query allocation budget is
// cluster's TestSteadyStateFleetAllocs.
func BenchmarkFleetScale(b *testing.B) {
	sh := fleetShape{hosts: 64, users: 4000, qps: 4000, n: 2000}
	fl := newFleetBench(b).warmFleet(b, sh, NewSticky(sh.hosts, 64), func(fl *cluster.Fleet) error {
		return fl.SetMetrics(MetricsConfig{})
	})
	res := timeRuns(b, fl, sh)
	b.ReportMetric(res.AchievedQPS, "vqps")
	if err := fl.WriteMetrics(io.Discard); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkQueryEngine measures wall-clock PoolQuery throughput: 12 user
// tables on Optane behind a 64 MiB row cache, a 64-query trace replayed at
// one issue time. A query runs on the calling goroutine; the sub-benchmark
// keeps the name it had beside a parallelism=N half, so its row stays
// comparable with earlier ledgers.
func BenchmarkQueryEngine(b *testing.B) {
	b.Run("parallelism=1", func(b *testing.B) {
		cfg := M1()
		cfg.NumUserTables = 12
		cfg.NumItemTables = 4
		cfg.ItemBatch = 8
		cfg.TotalBytes = 1 << 25
		inst, err := Build(cfg, 1, 13)
		if err != nil {
			b.Fatal(err)
		}
		tables, err := inst.Materialize()
		if err != nil {
			b.Fatal(err)
		}
		store, err := Open(inst, tables, Config{
			Seed:       13,
			SMTech:     OptaneSSD,
			Ring:       RingConfig{SGL: true},
			CacheBytes: 64 << 20,
		}, nil)
		if err != nil {
			b.Fatal(err)
		}
		gen, err := NewGenerator(inst, WorkloadConfig{Seed: 13, NumUsers: 400})
		if err != nil {
			b.Fatal(err)
		}
		qs := gen.GenerateTrace(64)
		outs := make([][][][]float32, len(qs))
		for i := range qs {
			outs[i] = store.AllocOutputs(qs[i])
		}
		now := store.LoadDone()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			q := qs[i%len(qs)]
			if _, err := store.PoolQuery(now, q, outs[i%len(qs)]); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(float64(store.Stats().Lookups)/float64(b.N), "lookups/query")
	})
}

// BenchmarkHostAdmit is serving.Host.Admit's steady-state row on the
// host-sm-miss shape (bench/workloads.go): one host over the end-to-end
// model at twice the fleet scale, a 64 KiB row cache and no pooled cache,
// 200 000 users at α 0.3 arriving at 60 qps of virtual time — the SM path
// (device, ring, cache put and evict, dequantize) on nearly every lookup.
// Model, host and generator are built and warmed outside the timer, so
// ns/op is one admitted query.
func BenchmarkHostAdmit(b *testing.B) {
	inst := fleetModel(b, 3e-4)
	tables, err := inst.Materialize()
	if err != nil {
		b.Fatal(err)
	}
	scfg := Config{Seed: 42, SMTech: NandFlash, Ring: RingConfig{SGL: true}, CacheBytes: 64 << 10}
	hs, err := NewFleetHosts(inst, tables, 1, &scfg, HostConfig{Spec: HWSS(), InterOp: true})
	if err != nil {
		b.Fatal(err)
	}
	h := hs[0]
	gen, err := NewGenerator(inst, WorkloadConfig{Seed: 42, NumUsers: 200000, UserAlpha: 0.3})
	if err != nil {
		b.Fatal(err)
	}
	const gap = simclock.Time(time.Second / 60)
	at := h.Ready()
	admit := func() {
		if _, err := h.Admit(at, gen.NextShared()); err != nil {
			b.Fatal(err)
		}
		at += gap
	}
	for i := 0; i < 2000; i++ {
		admit()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		admit()
	}
}
