package serving_test

import (
	"testing"
	"time"

	"sdm/internal/blockdev"
	"sdm/internal/cluster"
	"sdm/internal/core"
	"sdm/internal/embedding"
	"sdm/internal/model"
	"sdm/internal/serving"
	"sdm/internal/uring"
	"sdm/internal/workload"
)

// A host is measured as a fleet of one: the one-host fleet's front-end is
// the host's Poisson arrival loop, and cluster.HostQPS its max-QPS
// search. These tests hold the host's serving model to its paper-level
// behaviour through that loop.

// oneHost builds a host over a store opened with scfg (flat tables when
// scfg is nil) as a fleet of one, with arrivals and queries drawn from
// seed.
func oneHost(t *testing.T, in *model.Instance, tables []*embedding.Table, hcfg serving.Config, scfg *core.Config, seed uint64, users int64) (*cluster.Fleet, *serving.Host) {
	t.Helper()
	hosts, err := cluster.HostSet(in, tables, 1, scfg, hcfg)
	if err != nil {
		t.Fatal(err)
	}
	fl, err := cluster.New(hosts, cluster.NewRoundRobin(), cluster.Config{Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	gen, err := workload.NewGenerator(in, workload.Config{Seed: seed, NumUsers: users})
	if err != nil {
		t.Fatal(err)
	}
	fl.SetGenerator(gen)
	return fl, hosts[0]
}

// sdmFleet is oneHost over an SGL store with the given seed and cache.
func sdmFleet(t *testing.T, in *model.Instance, tables []*embedding.Table, hcfg serving.Config, seed uint64, cacheBytes int64) (*cluster.Fleet, *serving.Host) {
	t.Helper()
	return oneHost(t, in, tables, hcfg, &core.Config{Seed: seed, Ring: uring.Config{SGL: true}, CacheBytes: cacheBytes}, seed, 200)
}

func run(t *testing.T, fl *cluster.Fleet, qps float64, n int) *cluster.Result {
	t.Helper()
	res, err := fl.Run(qps, n)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestHostRunBasic(t *testing.T) {
	in, tables := serving.Fixture(t)
	fl, _ := sdmFleet(t, in, tables, serving.Config{Spec: serving.HWSS(), InterOp: true}, 1, 16<<20)
	res := run(t, fl, 50, 200)
	if res.Queries != 200 || res.AchievedQPS <= 0 {
		t.Fatalf("result %v", res)
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

// TestOneHostFleetGolden pins an overloaded one-host run's headline
// numbers, with and without inter-op parallelism, bit for bit: any drift
// means the host books virtual time differently (or the fleet's arrival
// loop changed). Pinned when the host's own arrival loop was deleted.
func TestOneHostFleetGolden(t *testing.T) {
	in, tables := serving.Fixture(t)
	for _, want := range []struct {
		interOp            bool
		p50, p99, qps, smq float64
	}{
		{true, 0.000785991306982271, 0.0013957984891243833, 1854.872718170361, 158.23},
		{false, 0.01868294024210845, 0.03317800022809201, 1472.6471367590477, 158.23},
	} {
		fl, h := sdmFleet(t, in, tables, serving.Config{Spec: serving.HWSS(), InterOp: want.interOp}, 1, 1<<14)
		res := run(t, fl, 2000, 200)
		smq := float64(res.Hosts[0].SMReads) / float64(res.Queries)
		if res.Latency.P50() != want.p50 || res.Latency.P99() != want.p99 ||
			res.AchievedQPS != want.qps || smq != want.smq {
			t.Errorf("interOp=%v: p50=%v p99=%v qps=%v sm/q=%v, want %+v", want.interOp,
				res.Latency.P50(), res.Latency.P99(), res.AchievedQPS, smq, want)
		}
		if n := h.OutstandingAt(res.End); n != 0 {
			t.Errorf("interOp=%v: %d queries outstanding at the run's end", want.interOp, n)
		}
	}
}

func TestLatencyRisesWithLoad(t *testing.T) {
	in, tables := serving.Fixture(t)
	p95 := func(qps float64) float64 {
		fl, _ := sdmFleet(t, in, tables, serving.Config{Spec: serving.HWSS(), InterOp: true}, 2, 1<<14)
		return run(t, fl, qps, 300).Latency.P95()
	}
	if low, high := p95(20), p95(20000); high <= low {
		t.Fatalf("p95 should rise under overload: low=%g high=%g", low, high)
	}
}

func TestInterOpReducesLatency(t *testing.T) {
	// §A.2: inter-op parallelism cuts per-query latency (~20% on M1; the
	// effect is larger here because the fixture's SM ops dominate).
	in, tables := serving.Fixture(t)
	mean := func(interOp bool) float64 {
		fl, _ := sdmFleet(t, in, tables, serving.Config{Spec: serving.HWSS(), InterOp: interOp}, 3, 1<<14)
		return run(t, fl, 30, 300).Latency.Mean()
	}
	if serial, parallel := mean(false), mean(true); parallel >= serial {
		t.Fatalf("inter-op should cut latency: serial=%g parallel=%g", serial, parallel)
	}
}

func TestCacheHitRateReachesSteadyState(t *testing.T) {
	// §5.1: >96% hit rate in steady state, reached minutes after load. A
	// run's HitRate counts that run's lookups only, so the measured run
	// after a warm-up reads the steady state, not the cold start.
	in, tables := serving.Fixture(t)
	fl, _ := sdmFleet(t, in, tables, serving.Config{Spec: serving.HWSS(), InterOp: true}, 4, 64<<20)
	run(t, fl, 100, 1500)
	if warm := run(t, fl, 100, 500).HitRate; warm < 0.8 {
		t.Fatalf("steady-state hit rate %.2f, want high (paper: >0.96 with production cache sizes)", warm)
	}
}

func TestAccelHostFasterDense(t *testing.T) {
	in, tables := serving.Fixture(t)
	mean := func(spec serving.HostSpec) float64 {
		fl, _ := sdmFleet(t, in, tables, serving.Config{Spec: spec, InterOp: true}, 5, 16<<20)
		return run(t, fl, 30, 200).Latency.Mean()
	}
	if cpuOnly, accel := mean(serving.HWSS()), mean(serving.HWAO()); accel >= cpuOnly {
		t.Fatalf("accelerator host should be faster: %g vs %g", accel, cpuOnly)
	}
}

func TestRemoteUserPath(t *testing.T) {
	in, tables := serving.Fixture(t)
	fl, _ := oneHost(t, in, tables, serving.Config{Spec: serving.HWAN(), InterOp: true, RemoteUserPath: true}, nil, 6, 100)
	// Every query pays at least the network RTT.
	if min := run(t, fl, 50, 200).Latency.Min(); min < serving.RemoteRTT.Seconds() {
		t.Fatalf("remote path latency %gs below RTT", min)
	}
}

func TestMaxQPSAtLatency(t *testing.T) {
	in, tables := serving.Fixture(t)
	const budget = 30 * time.Millisecond
	qps, res, _, err := cluster.HostQPS(in, tables,
		&core.Config{Seed: 7, SMTech: blockdev.OptaneSSD, Ring: uring.Config{SGL: true}, CacheBytes: 32 << 20},
		serving.Config{Spec: serving.HWAO(), InterOp: true}, 7, budget, 100)
	if err != nil {
		t.Fatal(err)
	}
	if qps <= 5 {
		t.Fatalf("search did not move off the floor: %g", qps)
	}
	// The search returns only a probe that passed: p95 within budget and
	// at least 0.8× the offered rate sustained.
	if res.Latency.P95() > budget.Seconds() || res.AchievedQPS < 0.8*qps {
		t.Fatalf("returned probe fails the pass rule: %g QPS, p95=%g, achieved %g", qps, res.Latency.P95(), res.AchievedQPS)
	}
}
