package serving

import (
	"fmt"
	"reflect"
	"testing"
	"time"

	"sdm/internal/blockdev"
	"sdm/internal/core"
	"sdm/internal/embedding"
	"sdm/internal/model"
	"sdm/internal/simclock"
	"sdm/internal/uring"
	"sdm/internal/workload"
	"sdm/internal/xrand"
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
	store, err := core.Open(in, tables, scfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	gen, err := workload.NewGenerator(in, workload.Config{Seed: hcfg.Seed, NumUsers: 200})
	if err != nil {
		t.Fatal(err)
	}
	h, err := NewHost(in, store, tables, gen, nil, hcfg)
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

// TestRunOpenLoopGolden pins an overloaded run's headline numbers, with
// and without inter-op parallelism, to the values the separate per-op /
// batched / open-loop code paths produced before they were merged into
// Admit → execQuery → PoolOps (captured at commit c1821ae). Bit-for-bit:
// any drift means the merged path books virtual time differently.
func TestRunOpenLoopGolden(t *testing.T) {
	in, tables := fixture(t)
	for _, want := range []struct {
		interOp            bool
		p50, p99, qps, smq float64
	}{
		{true, 0.0008177453557843544, 0.002528295762349411, 2347.018847171568, 158.23},
		{false, 0.03384156023265384, 0.05443202605855991, 1449.6428467804994, 158.23},
	} {
		h, _ := sdmHost(t, in, tables,
			Config{Spec: HWSS(), InterOp: want.interOp, Seed: 1},
			core.Config{Seed: 1, Ring: uring.Config{SGL: true}, CacheBytes: 1 << 14})
		res, err := h.RunOpenLoop(2000, 200)
		if err != nil {
			t.Fatal(err)
		}
		if res.Latency.P50() != want.p50 || res.Latency.P99() != want.p99 ||
			res.AchievedQPS != want.qps || res.SMReadsPerQry != want.smq {
			t.Errorf("interOp=%v: p50=%v p99=%v qps=%v sm/q=%v, want %+v", want.interOp,
				res.Latency.P50(), res.Latency.P99(), res.AchievedQPS, res.SMReadsPerQry, want)
		}
		if n := h.OutstandingAt(h.horizon); n != 0 {
			t.Errorf("interOp=%v: %d queries outstanding at the run horizon", want.interOp, n)
		}
	}
}

// admitLog is a Tuner that records every hook call.
type admitLog struct{ calls []simclock.Time }

func (l *admitLog) BeforeAdmit(now simclock.Time) { l.calls = append(l.calls, now) }
func (l *admitLog) AfterAdmit(arrive, done simclock.Time) {
	l.calls = append(l.calls, arrive, done)
}

// TestRunOpenLoopIsAdmit checks that RunOpenLoop is nothing but an arrival
// loop over Admit: a twin host fed the same Poisson arrivals and queries
// through Admit sees the same tuner calls (hence completion times), ends
// on the same horizon and counts the same admissions.
func TestRunOpenLoopIsAdmit(t *testing.T) {
	in, tables := fixture(t)
	const (
		seed = 12
		qps  = 1500.0
		n    = 150
	)
	mk := func() (*Host, *admitLog) {
		h, _ := sdmHost(t, in, tables,
			Config{Spec: HWSS(), InterOp: true, Seed: seed},
			core.Config{Seed: seed, Ring: uring.Config{SGL: true}, CacheBytes: 1 << 14})
		l := &admitLog{}
		h.SetTuner(l)
		return h, l
	}
	loop, loopLog := mk()
	if _, err := loop.RunOpenLoop(qps, n); err != nil {
		t.Fatal(err)
	}

	twin, twinLog := mk()
	gen, err := workload.NewGenerator(in, workload.Config{Seed: seed, NumUsers: 200})
	if err != nil {
		t.Fatal(err)
	}
	rng := xrand.New(seed + 1) // the host's arrival stream
	var at simclock.Time
	for i := 0; i < n; i++ {
		at += simclock.Time(rng.Exp(1 / qps * float64(time.Second)))
		if _, err := twin.Admit(at, gen.NextShared()); err != nil {
			t.Fatal(err)
		}
	}
	if !reflect.DeepEqual(loopLog.calls, twinLog.calls) {
		t.Fatal("RunOpenLoop and Admit drove the tuner differently")
	}
	if len(loopLog.calls) != 3*n {
		t.Fatalf("%d tuner calls for %d queries, want %d", len(loopLog.calls), n, 3*n)
	}
	if loop.horizon != twin.horizon || loop.admitted != twin.admitted || loop.admitted != n {
		t.Fatalf("horizon %v/%v admitted %d/%d", loop.horizon, twin.horizon, loop.admitted, twin.admitted)
	}
	if got := loop.OutstandingAt(loop.horizon); got != 0 {
		t.Fatalf("%d queries outstanding at the run horizon", got)
	}
}

// TestExecQueryMatchesPoolOpsOracle replays a host's admissions against an
// identically seeded replica store driven directly through PoolOps: with
// InterOp the user ops of a query are one batch issued at arrival, without
// it a chain of one-op batches each issued at the previous op's IO
// completion. Arrivals are spaced so cores and the accelerator are always
// free, leaving the store-issue sequence as the only thing under test.
func TestExecQueryMatchesPoolOpsOracle(t *testing.T) {
	in, tables := fixture(t)
	nUser := in.Config.NumUserTables
	scfg := core.Config{Seed: 13, Ring: uring.Config{SGL: true}, CacheBytes: 1 << 14}
	for _, interOp := range []bool{true, false} {
		h, _ := sdmHost(t, in, tables, Config{Spec: HWSS(), InterOp: interOp, Seed: 13}, scfg)
		replica, err := core.Open(in, tables, scfg, nil)
		if err != nil {
			t.Fatal(err)
		}
		gen, err := workload.NewGenerator(in, workload.Config{Seed: 13, NumUsers: 200})
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 40; i++ {
			q := gen.Next()
			t0 := h.Ready() + simclock.Time(time.Second)
			got, err := h.Admit(t0, q)
			if err != nil {
				t.Fatal(err)
			}

			userOps := q.Ops[:nUser]
			outs := replica.AllocOutputs(workload.Query{Ops: userOps})
			var cpu time.Duration
			userDone := t0
			step := 1
			if interOp {
				step = nUser
			}
			for k := 0; k < nUser; k += step {
				rs, err := replica.PoolOps(userDone, userOps[k:k+step], outs[k:k+step])
				if err != nil {
					t.Fatal(err)
				}
				for _, r := range rs {
					cpu += r.CPUTime
					userDone = maxTime(userDone, r.IODone)
				}
			}
			for _, op := range q.Ops[nUser:] {
				c, err := h.poolFlat(op)
				if err != nil {
					t.Fatal(err)
				}
				cpu += c
			}
			want := maxTime(userDone, t0+simclock.Time(cpu)) + simclock.Time(h.denseTime(in.Config.ItemBatch))
			if got != want {
				t.Fatalf("interOp=%v query %d: host done %v, oracle %v", interOp, i, got, want)
			}
		}
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
	gen, err := workload.NewGenerator(in, workload.Config{Seed: 6, NumUsers: 100})
	if err != nil {
		t.Fatal(err)
	}
	h, err := NewHost(in, nil, tables, gen, nil, Config{
		Spec: HWAN(), InterOp: true, RemoteUserPath: true, Seed: 6,
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := h.RunOpenLoop(50, 200)
	if err != nil {
		t.Fatal(err)
	}
	// Every query pays at least the network RTT.
	if res.Latency.Min() < remoteRTT.Seconds() {
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
			Config{Spec: HWSS(), InterOp: true, Seed: 9},
			core.Config{Seed: 9, Ring: uring.Config{SGL: true}, CacheBytes: 1 << 16, PooledCacheBytes: 1 << 16, Parallelism: par})
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
	gen, err := workload.NewGenerator(in, workload.Config{Seed: 10, NumUsers: 100})
	if err != nil {
		t.Fatal(err)
	}
	h, err := NewHost(in, nil, tables, gen, nil, Config{Spec: HWL(), InterOp: true, Seed: 10})
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
	// Reads have no side effect, so one at the last completion leaves the
	// count at the last admission intact (the tracer reads at admission, the
	// metrics gauge at a window boundary just before it).
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
	var at, lastDone simclock.Time
	var dones []simclock.Time
	for i := 0; i < 8; i++ {
		at = t0 + simclock.Time(i)*simclock.Time(10*time.Microsecond)
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
		dones = append(dones, done)
	}
	if h.OutstandingAt(lastDone) != 0 {
		t.Fatalf("all queries done by %v, outstanding=%d", lastDone, h.OutstandingAt(lastDone))
	}
	want := 0
	for _, d := range dones {
		if d > at {
			want++
		}
	}
	if n := h.OutstandingAt(at); n != want || want < 2 {
		t.Fatalf("outstanding at the last admission after a later read = %d, want %d (≥ 2)", n, want)
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

func TestFMServedRateMatchesSnapshot(t *testing.T) {
	// The two-counter read the feedback scorer and the gauge use must be
	// the full snapshot's value bit for bit: before any lookup, between
	// admissions on a small cache that leaves some reads on SM, and on a
	// flat host with no store.
	in, tables := fixture(t)
	h, _ := sdmHost(t, in, tables,
		Config{Spec: HWSS(), InterOp: true, Seed: 12},
		core.Config{Seed: 12, Ring: uring.Config{SGL: true}, CacheBytes: 64 << 10})
	gen, err := workload.NewGenerator(in, workload.Config{Seed: 12, NumUsers: 500})
	if err != nil {
		t.Fatal(err)
	}
	check := func(h *Host, what string) {
		t.Helper()
		if got, want := h.FMServedRate(), h.Snapshot().FMServedRate(); got != want {
			t.Fatalf("%s: FMServedRate %v, Snapshot().FMServedRate() %v", what, got, want)
		}
	}
	check(h, "fresh host")
	at := h.Ready()
	for i := 0; i < 50; i++ {
		if _, err := h.Admit(at, gen.Next()); err != nil {
			t.Fatal(err)
		}
		check(h, fmt.Sprintf("after admission %d", i))
		at += simclock.Time(time.Millisecond)
	}
	if r := h.FMServedRate(); r <= 0 || r >= 1 {
		t.Fatalf("FM-served rate %v on a 64 KiB cache, want strictly between 0 and 1", r)
	}
	flat, err := NewHost(in, nil, tables, gen, nil, Config{Spec: HWL(), InterOp: true, Seed: 12})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := flat.Admit(flat.Ready(), gen.Next()); err != nil {
		t.Fatal(err)
	}
	check(flat, "flat host")
	if r := flat.FMServedRate(); r != 0 {
		t.Fatalf("flat host FM-served rate %v, want 0", r)
	}
}

func TestNewHostValidation(t *testing.T) {
	in, _ := fixture(t)
	gen, _ := workload.NewGenerator(in, workload.Config{Seed: 1})
	if _, err := NewHost(in, nil, nil, gen, nil, Config{Spec: HWSS()}); err == nil {
		t.Fatal("host without any backing should fail")
	}
	if _, err := NewHost(in, nil, nil, gen, nil, Config{Spec: HostSpec{Name: "x"}, RemoteUserPath: true}); err == nil {
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
