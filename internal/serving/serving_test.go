package serving

import (
	"testing"
	"time"

	"sdm/internal/blockdev"
	"sdm/internal/core"
	"sdm/internal/embedding"
	"sdm/internal/model"
	"sdm/internal/simclock"
	"sdm/internal/uring"
	"sdm/internal/workload"
)

func fixture(t *testing.T) (*model.Instance, []*embedding.Table) {
	t.Helper()
	cfg := model.M1()
	cfg.NumUserTables = 5
	cfg.NumItemTables = 3
	cfg.ItemBatch = 4
	cfg.TotalBytes = 1 << 21
	cfg.NumMLPLayers = 4
	cfg.AvgMLPWidth = 64
	in, err := model.Build(cfg, 1, 31)
	if err != nil {
		t.Fatal(err)
	}
	tables, err := in.Materialize()
	if err != nil {
		t.Fatal(err)
	}
	return in, tables
}

func sdmHost(t *testing.T, in *model.Instance, tables []*embedding.Table, hcfg Config, scfg core.Config) (*Host, *core.Store) {
	t.Helper()
	var clk simclock.Clock
	store, err := core.Open(in, tables, scfg, &clk)
	if err != nil {
		t.Fatal(err)
	}
	gen, err := workload.NewGenerator(in, workload.Config{Seed: hcfg.Seed, NumUsers: 200})
	if err != nil {
		t.Fatal(err)
	}
	h, err := NewHost(in, store, tables, gen, &clk, hcfg)
	if err != nil {
		t.Fatal(err)
	}
	return h, store
}

func TestHostRunBasic(t *testing.T) {
	in, tables := fixture(t)
	h, _ := sdmHost(t, in, tables,
		Config{Spec: HWSS(), InterOp: true, Seed: 1},
		core.Config{Seed: 1, Ring: uring.Config{SGL: true}, CacheBytes: 16 << 20})
	res, err := h.RunOpenLoop(50, 200)
	if err != nil {
		t.Fatal(err)
	}
	if res.Queries != 200 || res.AchievedQPS <= 0 {
		t.Fatalf("result %+v", res)
	}
	if res.Latency.Count() != 200 {
		t.Fatal("latency samples missing")
	}
	if res.Latency.P50() <= 0 {
		t.Fatal("latency must be positive")
	}
	if res.String() == "" {
		t.Fatal("String render")
	}
}

func TestLatencyRisesWithLoad(t *testing.T) {
	in, tables := fixture(t)
	mk := func() *Host {
		h, _ := sdmHost(t, in, tables,
			Config{Spec: HWSS(), InterOp: true, Seed: 2},
			core.Config{Seed: 2, Ring: uring.Config{SGL: true}, CacheBytes: 1 << 14})
		return h
	}
	low, err := mk().RunOpenLoop(20, 300)
	if err != nil {
		t.Fatal(err)
	}
	high, err := mk().RunOpenLoop(20000, 300)
	if err != nil {
		t.Fatal(err)
	}
	if high.Latency.P95() <= low.Latency.P95() {
		t.Fatalf("p95 should rise under overload: low=%g high=%g",
			low.Latency.P95(), high.Latency.P95())
	}
}

func TestInterOpReducesLatency(t *testing.T) {
	// §A.2: inter-op parallelism cuts per-query latency (~20% on M1; the
	// effect is larger here because the fixture's SM ops dominate).
	in, tables := fixture(t)
	run := func(interOp bool) float64 {
		h, _ := sdmHost(t, in, tables,
			Config{Spec: HWSS(), InterOp: interOp, Seed: 3},
			core.Config{Seed: 3, Ring: uring.Config{SGL: true}, CacheBytes: 1 << 14})
		res, err := h.RunOpenLoop(30, 300)
		if err != nil {
			t.Fatal(err)
		}
		return res.Latency.Mean()
	}
	serial := run(false)
	parallel := run(true)
	if parallel >= serial {
		t.Fatalf("inter-op should cut latency: serial=%g parallel=%g", serial, parallel)
	}
}

func TestCacheHitRateReachesSteadyState(t *testing.T) {
	// §5.1: >96% hit rate in steady state, reached minutes after load.
	in, tables := fixture(t)
	h, store := sdmHost(t, in, tables,
		Config{Spec: HWSS(), InterOp: true, Seed: 4},
		core.Config{Seed: 4, Ring: uring.Config{SGL: true}, CacheBytes: 64 << 20})
	if _, err := h.RunOpenLoop(100, 1500); err != nil {
		t.Fatal(err)
	}
	before := store.CacheStats()
	if _, err := h.RunOpenLoop(100, 500); err != nil {
		t.Fatal(err)
	}
	after := store.CacheStats()
	hits := after.Hits - before.Hits
	total := hits + after.Misses - before.Misses
	warm := float64(hits) / float64(total)
	if warm < 0.8 {
		t.Fatalf("steady-state hit rate %.2f, want high (paper: >0.96 with production cache sizes)", warm)
	}
}

func TestAccelHostFasterDense(t *testing.T) {
	in, tables := fixture(t)
	run := func(spec HostSpec) float64 {
		h, _ := sdmHost(t, in, tables,
			Config{Spec: spec, InterOp: true, Seed: 5},
			core.Config{Seed: 5, Ring: uring.Config{SGL: true}, CacheBytes: 16 << 20})
		res, err := h.RunOpenLoop(30, 200)
		if err != nil {
			t.Fatal(err)
		}
		return res.Latency.Mean()
	}
	cpuOnly := run(HWSS())
	accel := run(HWAO())
	if accel >= cpuOnly {
		t.Fatalf("accelerator host should be faster: %g vs %g", accel, cpuOnly)
	}
}

func TestRemoteUserPath(t *testing.T) {
	in, tables := fixture(t)
	var clk simclock.Clock
	gen, err := workload.NewGenerator(in, workload.Config{Seed: 6, NumUsers: 100})
	if err != nil {
		t.Fatal(err)
	}
	h, err := NewHost(in, nil, tables, gen, &clk, Config{
		Spec: HWAN(), InterOp: true, RemoteUserPath: true,
		RemoteRTT: 500 * time.Microsecond, Seed: 6,
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := h.RunOpenLoop(50, 200)
	if err != nil {
		t.Fatal(err)
	}
	// Every query pays at least the network RTT.
	if res.Latency.Min() < 400e-6 {
		t.Fatalf("remote path latency %gs below RTT", res.Latency.Min())
	}
}

func TestMaxQPSAtLatency(t *testing.T) {
	in, tables := fixture(t)
	h, _ := sdmHost(t, in, tables,
		Config{Spec: HWAO(), InterOp: true, Seed: 7},
		core.Config{Seed: 7, SMTech: blockdev.OptaneSSD, Ring: uring.Config{SGL: true}, CacheBytes: 32 << 20})
	qps, res, err := h.MaxQPSAtLatency(0.95, 30*time.Millisecond, 5, 2000, 150)
	if err != nil {
		t.Fatal(err)
	}
	if qps <= 5 {
		t.Fatalf("search did not move off the floor: %g", qps)
	}
	if res.Latency.P95() > 0.03*1.2 {
		t.Fatalf("returned config violates budget: p95=%g", res.Latency.P95())
	}
}

func TestHostParallelismDeterministic(t *testing.T) {
	// The host's measured virtual-time numbers must not depend on how many
	// OS workers the store's query engine uses.
	in, tables := fixture(t)
	run := func(par int) (Result, core.Stats) {
		h, store := sdmHost(t, in, tables,
			Config{Spec: HWSS(), InterOp: true, Seed: 9, Parallelism: par},
			core.Config{Seed: 9, Ring: uring.Config{SGL: true}, CacheBytes: 1 << 16, PooledCacheBytes: 1 << 16})
		res, err := h.RunOpenLoop(200, 300)
		if err != nil {
			t.Fatal(err)
		}
		return res, store.Stats()
	}
	r1, s1 := run(1)
	r4, s4 := run(4)
	if s1 != s4 {
		t.Fatalf("store stats diverged across parallelism:\n%+v\n%+v", s1, s4)
	}
	if r1.AchievedQPS != r4.AchievedQPS ||
		r1.Latency.P50() != r4.Latency.P50() ||
		r1.Latency.P99() != r4.Latency.P99() ||
		r1.SMReadsPerQry != r4.SMReadsPerQry {
		t.Fatalf("host results diverged: %v vs %v", r1, r4)
	}
}

func TestFlatHostReportsCPUUtil(t *testing.T) {
	// DRAM-baseline hosts pool from flat tables; their CPU work books on
	// the cores and must show up as utilization (it used to read 0%
	// because only store CPU was counted).
	in, tables := fixture(t)
	var clk simclock.Clock
	gen, err := workload.NewGenerator(in, workload.Config{Seed: 10, NumUsers: 100})
	if err != nil {
		t.Fatal(err)
	}
	h, err := NewHost(in, nil, tables, gen, &clk, Config{Spec: HWL(), InterOp: true, Seed: 10})
	if err != nil {
		t.Fatal(err)
	}
	res, err := h.RunOpenLoop(100, 300)
	if err != nil {
		t.Fatal(err)
	}
	if res.CPUUtil <= 0 {
		t.Fatalf("flat host CPU utilization %.4f, want > 0", res.CPUUtil)
	}
	if res.CPUUtil > 1.5 {
		t.Fatalf("flat host CPU utilization %.4f implausible", res.CPUUtil)
	}
}

func TestAdmitAndOutstanding(t *testing.T) {
	// The cluster-facing interface: admissions in time order, outstanding
	// counts retire as virtual time passes, snapshots expose cache deltas.
	in, tables := fixture(t)
	h, _ := sdmHost(t, in, tables,
		Config{Spec: HWSS(), InterOp: true, Seed: 11},
		core.Config{Seed: 11, Ring: uring.Config{SGL: true}, CacheBytes: 16 << 20})
	gen, err := workload.NewGenerator(in, workload.Config{Seed: 11, NumUsers: 50})
	if err != nil {
		t.Fatal(err)
	}
	t0 := h.Ready()
	if h.OutstandingAt(t0) != 0 {
		t.Fatal("fresh host should be idle")
	}
	before := h.Snapshot()
	var lastDone simclock.Time
	for i := 0; i < 8; i++ {
		at := t0 + simclock.Time(i)*simclock.Time(10*time.Microsecond)
		done, err := h.Admit(at, gen.Next())
		if err != nil {
			t.Fatal(err)
		}
		if done <= at {
			t.Fatalf("completion %v not after arrival %v", done, at)
		}
		if h.OutstandingAt(at) == 0 {
			t.Fatal("admitted query should be outstanding at its arrival")
		}
		if done > lastDone {
			lastDone = done
		}
	}
	if h.OutstandingAt(lastDone) != 0 {
		t.Fatalf("all queries done by %v, outstanding=%d", lastDone, h.OutstandingAt(lastDone))
	}
	delta := h.Snapshot().Sub(before)
	if delta.CacheHits+delta.CacheMisses == 0 {
		t.Fatal("admissions should touch the row cache")
	}
	if delta.CPUBooked <= 0 {
		t.Fatal("admissions should book CPU")
	}
	if h.Ready() < lastDone {
		t.Fatal("Ready must cover admitted work")
	}
}

func TestNewHostValidation(t *testing.T) {
	in, _ := fixture(t)
	var clk simclock.Clock
	gen, _ := workload.NewGenerator(in, workload.Config{Seed: 1})
	if _, err := NewHost(in, nil, nil, gen, &clk, Config{Spec: HWSS()}); err == nil {
		t.Fatal("host without any backing should fail")
	}
	if _, err := NewHost(in, nil, nil, gen, &clk, Config{Spec: HostSpec{Name: "x"}, RemoteUserPath: true}); err == nil {
		t.Fatal("zero cores should fail")
	}
}

func TestRunValidation(t *testing.T) {
	in, tables := fixture(t)
	h, _ := sdmHost(t, in, tables, Config{Spec: HWSS(), Seed: 8}, core.Config{Seed: 8})
	if _, err := h.RunOpenLoop(0, 10); err == nil {
		t.Fatal("zero QPS should fail")
	}
	if _, err := h.RunOpenLoop(10, 0); err == nil {
		t.Fatal("zero queries should fail")
	}
}

func TestHostSpecs(t *testing.T) {
	// Table 7 sanity: SKUs exist with the right memory/accelerator shape.
	if HWL().DRAMBytes != 256<<30 || HWL().AccelFlops != 0 {
		t.Fatal("HW-L shape")
	}
	for _, s := range []HostSpec{HWS(), HWSS(), HWAN(), HWAO()} {
		if s.DRAMBytes != 64<<30 {
			t.Fatalf("%s DRAM %d, want 64GB", s.Name, s.DRAMBytes)
		}
	}
	if HWAN().AccelFlops == 0 || HWAO().AccelFlops == 0 || HWF().AccelFlops == 0 {
		t.Fatal("accelerator hosts need accelerators")
	}
	if HWSS().RelPower >= HWL().RelPower {
		t.Fatal("Table 8: HW-SS must be cheaper than HW-L")
	}
}
