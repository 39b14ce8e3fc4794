package cluster

import (
	"fmt"
	"math"
	"strings"
	"testing"
	"time"

	"sdm/internal/adapt"
	"sdm/internal/core"
	"sdm/internal/embedding"
	"sdm/internal/model"
	"sdm/internal/placement"
	"sdm/internal/serving"
	"sdm/internal/uring"
	"sdm/internal/workload"
)

func fixture(t testing.TB) (*model.Instance, []*embedding.Table) {
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

// testFleet builds an n-host SDM fleet with a small row cache (so routing
// policy visibly moves the hit rate) plus a fresh shared-population
// generator.
func testFleet(t *testing.T, in *model.Instance, tables []*embedding.Table, n int, router Router, cfg Config) *Fleet {
	t.Helper()
	scfg := core.Config{Seed: 7, Ring: uring.Config{SGL: true}, CacheBytes: 1 << 15}
	hosts, err := HostSet(in, tables, n, &scfg, serving.Config{Spec: serving.HWSS(), InterOp: true})
	if err != nil {
		t.Fatal(err)
	}
	f, err := New(hosts, router, cfg)
	if err != nil {
		t.Fatal(err)
	}
	gen, err := workload.NewGenerator(in, workload.Config{Seed: cfg.Seed, NumUsers: 800, UserAlpha: 0.8})
	if err != nil {
		t.Fatal(err)
	}
	f.SetGenerator(gen)
	return f
}

// resultKey flattens every virtual-time number of a Result so runs can be
// compared bit-for-bit.
func resultKey(t *testing.T, r *Result) string {
	t.Helper()
	var b strings.Builder
	b.WriteString(r.String())
	for _, h := range r.Hosts {
		b.WriteString(h.Latency.String())
		b.WriteString(h.String())
	}
	for _, w := range r.Windows {
		b.WriteString(w.String())
	}
	return b.String()
}

func TestFleetDeterministicAcrossWorkers(t *testing.T) {
	// The determinism contract: same seed ⇒ bit-identical fleet
	// virtual-time stats at any host-worker count, for every policy.
	in, tables := fixture(t)
	for _, mk := range []func() Router{
		func() Router { return NewRoundRobin() },
		func() Router { return NewLeastOutstanding() },
		func() Router { return NewSticky(4, 32) },
	} {
		var keys []string
		var name string
		for _, workers := range []int{1, 2, 4, 7} {
			f := testFleet(t, in, tables, 4, mk(), Config{Seed: 11, HostWorkers: workers})
			res, err := f.Run(400, 400)
			if err != nil {
				t.Fatal(err)
			}
			name = res.Policy
			keys = append(keys, resultKey(t, res))
		}
		for i := 1; i < len(keys); i++ {
			if keys[i] != keys[0] {
				t.Fatalf("%s: results diverged across worker counts:\n%s\nvs\n%s", name, keys[0], keys[i])
			}
		}
	}
}

// adaptiveFixture builds an instance whose user tables are equal-sized,
// so a DRAM budget of ~2 tables makes hot-set rotation genuinely force
// FM↔SM swaps.
func adaptiveFixture(t *testing.T) (*model.Instance, []*embedding.Table) {
	t.Helper()
	cfg := model.M1()
	cfg.NumUserTables = 6
	cfg.NumItemTables = 2
	cfg.ItemBatch = 4
	cfg.TotalBytes = 1 << 21
	cfg.NumMLPLayers = 4
	cfg.AvgMLPWidth = 64
	in, err := model.Build(cfg, 1, 47)
	if err != nil {
		t.Fatal(err)
	}
	const perTable = 96 << 10
	for i := 0; i < cfg.NumUserTables; i++ {
		in.Tables[i].Rows = perTable / int64(in.Tables[i].RowBytes())
	}
	tables, err := in.Materialize()
	if err != nil {
		t.Fatal(err)
	}
	return in, tables
}

// adaptiveFleet assembles n adaptive SDM hosts behind sticky routing over
// a drifting shared workload.
func adaptiveFleet(t *testing.T, in *model.Instance, tables []*embedding.Table, n, workers int) (*Fleet, []*adapt.Adapter) {
	t.Helper()
	scfg := core.Config{
		Seed: 7, Ring: uring.Config{SGL: true}, CacheBytes: 1 << 16,
		ReserveSM: true,
		Placement: placement.Config{
			Policy: placement.FixedFMWithCache, UserTablesOnly: true,
			DRAMBudget: 5 * (96 << 10) / 2,
		},
	}
	hosts, err := HostSet(in, tables, n, &scfg, serving.Config{Spec: serving.HWSS(), InterOp: true})
	if err != nil {
		t.Fatal(err)
	}
	adapters, err := AttachAdaptive(hosts, adapt.Config{
		Interval: 100 * time.Millisecond, BandwidthBytesPerSec: 8 << 20, ChunkBytes: 16 << 10,
	})
	if err != nil {
		t.Fatal(err)
	}
	f, err := New(hosts, NewSticky(n, 64), Config{Seed: 11, HostWorkers: workers, Windows: 8})
	if err != nil {
		t.Fatal(err)
	}
	gen, err := workload.NewGenerator(in, workload.Config{
		Seed: 11, NumUsers: 800, UserAlpha: 0.9,
		Drift: workload.DriftConfig{HotTables: 2, HotBoost: 4, ColdShrink: 0.25},
	})
	if err != nil {
		t.Fatal(err)
	}
	f.SetGenerator(gen)
	return f, adapters
}

func TestAdaptiveFleetDeterministicAcrossWorkers(t *testing.T) {
	// The adaptive determinism contract: telemetry sampling, controller
	// evaluations and paced migration IO all ride the per-host admission
	// order, so a drift drill over real goroutines stays bit-identical at
	// any worker count.
	in, tables := adaptiveFixture(t)
	var keys []string
	for _, workers := range []int{1, 2, 4} {
		f, adapters := adaptiveFleet(t, in, tables, 3, workers)
		if _, err := f.Run(300, 600); err != nil {
			t.Fatal(err)
		}
		if err := f.ScheduleDrift(0.5); err != nil {
			t.Fatal(err)
		}
		res, err := f.Run(300, 900)
		if err != nil {
			t.Fatal(err)
		}
		keys = append(keys, resultKey(t, res)+AdapterStats(adapters).String())
	}
	for i := 1; i < len(keys); i++ {
		if keys[i] != keys[0] {
			t.Fatalf("adaptive fleet diverged across worker counts:\n%s\nvs\n%s", keys[0], keys[i])
		}
	}
}

// rangeAdaptiveFleet mirrors adaptiveFleet at row-range granularity: a
// spatial (identity-permuted) workload clusters each table's hot rows in
// its head ranges, and the controller packs ranges instead of tables.
func rangeAdaptiveFleet(t *testing.T, in *model.Instance, tables []*embedding.Table, n, workers int) (*Fleet, []*adapt.Adapter) {
	t.Helper()
	scfg := core.Config{
		Seed: 7, Ring: uring.Config{SGL: true}, CacheBytes: 1 << 16,
		ReserveSM: true, MigrationRangeBytes: 16 << 10,
		Placement: placement.Config{
			Policy: placement.SMOnlyWithCache, UserTablesOnly: true,
		},
	}
	hosts, err := HostSet(in, tables, n, &scfg, serving.Config{Spec: serving.HWSS(), InterOp: true})
	if err != nil {
		t.Fatal(err)
	}
	adapters, err := AttachAdaptive(hosts, adapt.Config{
		Interval: 100 * time.Millisecond, BandwidthBytesPerSec: 8 << 20,
		ChunkBytes: 16 << 10, DRAMBudget: 5 * (96 << 10) / 2,
		Granularity: adapt.Ranges,
	})
	if err != nil {
		t.Fatal(err)
	}
	f, err := New(hosts, NewSticky(n, 64), Config{Seed: 11, HostWorkers: workers, Windows: 8})
	if err != nil {
		t.Fatal(err)
	}
	gen, err := workload.NewGenerator(in, workload.Config{
		Seed: 11, NumUsers: 800, UserAlpha: 0.9, Spatial: true,
		Drift: workload.DriftConfig{HotTables: 2, HotBoost: 4, ColdShrink: 0.25},
	})
	if err != nil {
		t.Fatal(err)
	}
	f.SetGenerator(gen)
	return f, adapters
}

func TestRangeAdaptiveFleetDeterministicAcrossWorkers(t *testing.T) {
	// The range-granular determinism contract: per-range counters fold in
	// operator order, range telemetry and the knapsack run in admission
	// order, and migration windows pace on the virtual timeline — so a
	// drift drill over real goroutines stays bit-identical at any worker
	// count, including the new range-served window rates.
	in, tables := adaptiveFixture(t)
	var keys []string
	for _, workers := range []int{1, 2, 4} {
		f, adapters := rangeAdaptiveFleet(t, in, tables, 3, workers)
		if _, err := f.Run(300, 600); err != nil {
			t.Fatal(err)
		}
		if err := f.ScheduleDrift(0.5); err != nil {
			t.Fatal(err)
		}
		res, err := f.Run(300, 900)
		if err != nil {
			t.Fatal(err)
		}
		if workers == 1 {
			as := AdapterStats(adapters)
			if as.RangeMoves == 0 {
				t.Fatalf("range fleet never moved a range: %s", as)
			}
			if res.RangeServedRate <= 0 {
				t.Fatalf("fleet range-served rate empty: %+v", res)
			}
		}
		keys = append(keys, resultKey(t, res)+AdapterStats(adapters).String())
	}
	for i := 1; i < len(keys); i++ {
		if keys[i] != keys[0] {
			t.Fatalf("range-adaptive fleet diverged across worker counts:\n%s\nvs\n%s", keys[0], keys[i])
		}
	}
}

func TestScheduleDriftDrill(t *testing.T) {
	in, tables := adaptiveFixture(t)
	f, adapters := adaptiveFleet(t, in, tables, 3, 0)
	for _, frac := range []float64{1.5, math.NaN(), math.Inf(1), math.Inf(-1)} {
		if err := f.ScheduleDrift(frac); err == nil || !strings.Contains(err.Error(), "frac") {
			t.Fatalf("ScheduleDrift(%v): error %v, want one naming frac", frac, err)
		}
	}
	if _, err := f.Run(300, 600); err != nil { // warm + converge
		t.Fatal(err)
	}
	pre := AdapterStats(adapters)
	if pre.Evals == 0 {
		t.Fatal("adapters never evaluated during warmup")
	}
	if err := f.ScheduleDrift(0.4); err != nil {
		t.Fatal(err)
	}
	res, err := f.Run(300, 1200)
	if err != nil {
		t.Fatal(err)
	}
	if !res.DriftFired || res.DriftAt <= res.Start {
		t.Fatalf("drift drill not recorded: fired=%t at=%v", res.DriftFired, res.DriftAt)
	}
	post := AdapterStats(adapters)
	if post.Promotions <= pre.Promotions {
		t.Fatalf("rotation should trigger promotions: %s -> %s", pre, post)
	}
	if post.MigratedBytes <= pre.MigratedBytes {
		t.Fatalf("migrations should move bytes: %s -> %s", pre, post)
	}
	// A later run is not itself a drill.
	after, err := f.Run(300, 200)
	if err != nil {
		t.Fatal(err)
	}
	if after.DriftFired {
		t.Fatal("drift drill state leaked into the next run")
	}
	// Window FM-served rates are populated for SDM fleets.
	var sawFM bool
	for _, w := range res.Windows {
		if w.FMRate > 0 {
			sawFM = true
		}
	}
	if !sawFM {
		t.Fatalf("window FM rates empty: %+v", res.Windows)
	}
}

func TestStickyBeatsRoundRobinHitRate(t *testing.T) {
	// Fig. 4c at serving time: pinning users to hosts concentrates their
	// rows in one replica's cache, so the measured row-cache hit rate must
	// beat round-robin on the same trace.
	in, tables := fixture(t)
	run := func(r Router) *Result {
		f := testFleet(t, in, tables, 4, r, Config{Seed: 13})
		res, err := f.Run(300, 800)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	rr := run(NewRoundRobin())
	sticky := run(NewSticky(4, 64))
	if sticky.HitRate <= rr.HitRate {
		t.Fatalf("sticky hit rate %.3f should beat round-robin %.3f", sticky.HitRate, rr.HitRate)
	}
	// Load still lands on every host (consistent hashing spreads users).
	for _, h := range sticky.Hosts {
		if h.Queries == 0 {
			t.Fatalf("sticky starved host %d: %+v", h.ID, sticky.Hosts)
		}
	}
}

func TestLeastOutstandingBalances(t *testing.T) {
	in, tables := fixture(t)
	f := testFleet(t, in, tables, 4, NewLeastOutstanding(), Config{Seed: 17})
	res, err := f.Run(500, 400)
	if err != nil {
		t.Fatal(err)
	}
	min, max := res.Hosts[0].Queries, res.Hosts[0].Queries
	for _, h := range res.Hosts {
		if h.Queries < min {
			min = h.Queries
		}
		if h.Queries > max {
			max = h.Queries
		}
	}
	if min == 0 || float64(max) > 2.5*float64(min) {
		t.Fatalf("least-outstanding should balance load: min=%d max=%d", min, max)
	}
}

func TestHostFailureReroutesUsers(t *testing.T) {
	// §A.4: killing a host mid-run reroutes its users to survivors whose
	// caches are cold for them — visible as a warmup hit-rate drop.
	in, tables := fixture(t)
	f := testFleet(t, in, tables, 4, NewSticky(4, 64), Config{Seed: 19, Windows: 8})
	if err := f.ScheduleFailure(2, 0.5); err != nil {
		t.Fatal(err)
	}
	res, err := f.Run(300, 1200)
	if err != nil {
		t.Fatal(err)
	}
	if res.FailedHost != 2 || res.Hosts[2].Alive {
		t.Fatalf("host 2 should be dead: %+v", res.Hosts[2])
	}
	if res.ReroutedUsers == 0 {
		t.Fatal("failure should reroute the dead host's users")
	}
	if res.WarmupHitDrop <= 0 {
		t.Fatalf("rerouted users should hit cold caches: drop=%.4f", res.WarmupHitDrop)
	}
	if res.WarmupSpike <= 0 {
		t.Fatalf("warmup spike should be measured: %g", res.WarmupSpike)
	}
	// The survivors keep serving: the fleet completes every query.
	if int(res.Latency.Count()) != res.Queries {
		t.Fatalf("completed %d of %d queries", res.Latency.Count(), res.Queries)
	}
	// A later Run keeps the host dead but is not itself a failure drill:
	// no stale failure metadata, and a second kill is rejected.
	after, err := f.Run(300, 200)
	if err != nil {
		t.Fatal(err)
	}
	if after.FailedHost != -1 || after.ReroutedUsers != 0 || after.WarmupSpike != 0 {
		t.Fatalf("post-failure run reports stale drill: %+v", after)
	}
	if after.Hosts[2].Queries != 0 || after.Hosts[2].Alive {
		t.Fatalf("dead host served after failure: %+v", after.Hosts[2])
	}
	if err := f.ScheduleFailure(3, 0.5); err == nil {
		t.Fatal("second failure in one fleet lifetime should be rejected")
	}
}

func TestStickyRingConsistency(t *testing.T) {
	// Consistent hashing: when a host leaves, only its users remap.
	// Liveness now lives in the View — the ring is immutable and reads
	// the alive set per lookup.
	r := NewRing(5, 64)
	alive := []bool{true, true, true, true, true}
	isAlive := func(id int) bool { return alive[id] }
	before := make(map[int64]int)
	for u := int64(0); u < 3000; u++ {
		before[u] = r.Owner(u, isAlive)
	}
	alive[3] = false
	moved := 0
	for u := int64(0); u < 3000; u++ {
		after := r.Owner(u, isAlive)
		if after == 3 {
			t.Fatalf("user %d still routed to dead host", u)
		}
		if before[u] != 3 && after != before[u] {
			t.Fatalf("user %d moved from alive host %d to %d", u, before[u], after)
		}
		if before[u] == 3 {
			moved++
		}
	}
	if moved == 0 {
		t.Fatal("host 3 owned no users; ring is degenerate")
	}
	// Rejoin restores the exact prior ownership.
	alive[3] = true
	for u := int64(0); u < 3000; u++ {
		if r.Owner(u, isAlive) != before[u] {
			t.Fatalf("user %d did not return to host %d after rejoin", u, before[u])
		}
	}
	// A nil alive set accepts every host.
	for u := int64(0); u < 100; u++ {
		if r.Owner(u, nil) != before[u] {
			t.Fatalf("nil alive set diverged from all-alive for user %d", u)
		}
	}
}

func TestRoundRobinSkipsDeadHosts(t *testing.T) {
	in, tables := fixture(t)
	f := testFleet(t, in, tables, 3, NewRoundRobin(), Config{Seed: 23})
	if err := f.ScheduleFailure(0, 0.3); err != nil {
		t.Fatal(err)
	}
	res, err := f.Run(200, 600)
	if err != nil {
		t.Fatal(err)
	}
	if res.Hosts[0].Queries >= res.Hosts[1].Queries {
		t.Fatalf("dead host should stop receiving load: %+v", res.Hosts)
	}
}

func TestFleetValidation(t *testing.T) {
	in, tables := fixture(t)
	scfg := core.Config{Seed: 1, Ring: uring.Config{SGL: true}, CacheBytes: 1 << 15}
	hosts, err := HostSet(in, tables, 1, &scfg, serving.Config{Spec: serving.HWSS(), InterOp: true})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := New(nil, NewRoundRobin(), Config{}); err == nil {
		t.Fatal("empty fleet should fail")
	}
	if _, err := New(hosts, nil, Config{}); err == nil {
		t.Fatal("nil router should fail")
	}
	f, err := New(hosts, NewRoundRobin(), Config{})
	if err != nil {
		t.Fatal(err)
	}
	if err := f.ScheduleFailure(0, 0.5); err == nil {
		t.Fatal("failing the only host should fail")
	}
	if err := f.ScheduleFailure(5, 0.5); err == nil {
		t.Fatal("out-of-range fail host should fail")
	}
	if _, err := f.Run(100, 10); err == nil {
		t.Fatal("run without a generator should fail")
	}
	gen, err := workload.NewGenerator(in, workload.Config{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	f.SetGenerator(gen)
	if _, err := f.Run(0, 10); err == nil {
		t.Fatal("zero QPS should fail")
	}
	if _, err := f.Run(10, 0); err == nil {
		t.Fatal("zero queries should fail")
	}
	// Non-finite floats pass every x <= 0 check; each is an error naming
	// the parameter, never a run with offered=NaN.
	hosts2, err := HostSet(in, tables, 2, &scfg, serving.Config{Spec: serving.HWSS(), InterOp: true})
	if err != nil {
		t.Fatal(err)
	}
	f2, err := New(hosts2, NewRoundRobin(), Config{})
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name string
		call func(v float64) error
	}{
		{"qps", func(v float64) error { _, err := f.Run(v, 10); return err }},
		{"frac", func(v float64) error { return f2.ScheduleFailure(0, v) }},
		{"BandwidthBytesPerSec", func(v float64) error {
			_, err := NewCoordinator(2, CoordConfig{BandwidthBytesPerSec: v}, 0)
			return err
		}},
	} {
		for _, v := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
			if err := c.call(v); err == nil || !strings.Contains(err.Error(), c.name) {
				t.Errorf("%s = %v: error %v, want one naming %s", c.name, v, err, c.name)
			}
		}
	}
	if _, err := HostSet(in, tables, 0, &scfg, serving.Config{Spec: serving.HWSS()}); err == nil {
		t.Fatal("empty host set should fail")
	}
}

// TestFleetRejectsMismatchedRing: an affinity ring built for another fleet
// size used to panic inside Score on the first Route, on the front-end
// goroutine; New refuses it with an error naming both sizes.
func TestFleetRejectsMismatchedRing(t *testing.T) {
	in, tables := fixture(t)
	scfg := core.Config{Seed: 1, Ring: uring.Config{SGL: true}, CacheBytes: 1 << 15}
	hosts, err := HostSet(in, tables, 4, &scfg, serving.Config{Spec: serving.HWSS(), InterOp: true})
	if err != nil {
		t.Fatal(err)
	}
	weighted := func(ringHosts int) Router {
		sw, err := ParseScorers("queue=0.4,affinity=1", ringHosts)
		if err != nil {
			t.Fatal(err)
		}
		r, err := NewWeightedRouter("", sw...)
		if err != nil {
			t.Fatal(err)
		}
		return r
	}
	for _, c := range []struct {
		name   string
		router Router
		ring   int // the mismatched ring's size, 0 when New must accept
	}{
		{"sticky ring too small", NewSticky(3, 64), 3},
		{"sticky ring too large", NewSticky(5, 64), 5},
		{"parsed scorers too small", weighted(3), 3},
		{"sticky ring matches", NewSticky(4, 64), 0},
		{"parsed scorers match", weighted(4), 0},
		{"no ring", NewLeastOutstanding(), 0},
	} {
		_, err := New(hosts, c.router, Config{})
		switch {
		case c.ring == 0 && err != nil:
			t.Fatalf("%s: rejected: %v", c.name, err)
		case c.ring == 0:
		case err == nil:
			t.Fatalf("%s: accepted", c.name)
		case !strings.Contains(err.Error(), fmt.Sprintf("for %d hosts", c.ring)) || !strings.Contains(err.Error(), "4-host fleet"):
			t.Fatalf("%s: error %q does not name both sizes", c.name, err)
		}
	}
}

func TestUtilizationSweepCrossover(t *testing.T) {
	// The BLIS utilization sweep: affinity routing wins on cache hit rate
	// while the fleet has headroom, but it saturates its hottest host
	// first — at high load round-robin's even spread keeps p99 flat while
	// sticky's tail collapses. Both regimes on the same fixture.
	in, tables := fixture(t)
	run := func(r Router, seed uint64, qps float64, n int) *Result {
		f := testFleet(t, in, tables, 4, r, Config{Seed: seed})
		res, err := f.Run(qps, n)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	// Low load: locality dominates. Sticky concentrates each user's rows
	// in one replica's cache and wins the fleet hit rate.
	rrLow := run(NewRoundRobin(), 13, 300, 800)
	stLow := run(NewSticky(4, 64), 13, 300, 800)
	if stLow.HitRate <= rrLow.HitRate {
		t.Fatalf("low load: sticky hit %.3f should beat round-robin %.3f",
			stLow.HitRate, rrLow.HitRate)
	}
	// High load: this fixture's sticky fleet saturates its hottest host
	// near 11k qps, so at 16k the sticky tail is unbounded queueing while
	// round-robin still has headroom (~24k capacity).
	rrHigh := run(NewRoundRobin(), 29, 16000, 3000)
	stHigh := run(NewSticky(4, 64), 29, 16000, 3000)
	if 4*rrHigh.Latency.P99() >= stHigh.Latency.P99() {
		t.Fatalf("high load: round-robin p99 %.6f should be far below sticky %.6f",
			rrHigh.Latency.P99(), stHigh.Latency.P99())
	}
	// The mechanism is load imbalance, visible as Jain fairness over
	// per-host served counts.
	if rrHigh.LoadFairness <= stHigh.LoadFairness {
		t.Fatalf("round-robin load fairness %.3f should beat sticky %.3f",
			rrHigh.LoadFairness, stHigh.LoadFairness)
	}
}

func TestAdmissionBoundsOverloadTail(t *testing.T) {
	// 2× overload drill: sticky at 16k qps is ~2× past its comfortable
	// operating point on this fixture, so the open-loop p99 blows up to
	// tens of milliseconds. Token-bucket admission sheds the excess and
	// restores millisecond tails, with the rejected share accounted per
	// SLO class.
	in, tables := fixture(t)
	run := func(admit bool) *Result {
		f := testFleet(t, in, tables, 4, NewSticky(4, 64), Config{Seed: 29})
		gen, err := workload.NewGenerator(in, workload.Config{
			Seed: 29, NumUsers: 800, UserAlpha: 0.8, SLOClasses: 2,
		})
		if err != nil {
			t.Fatal(err)
		}
		f.SetGenerator(gen)
		if admit {
			err := f.SetAdmission(AdmitConfig{Classes: []ClassAdmit{
				{Name: "gold", RatePerSec: 3000},
				{Name: "best-effort", RatePerSec: 2000},
			}})
			if err != nil {
				t.Fatal(err)
			}
		}
		res, err := f.Run(16000, 3000)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	open := run(false)
	gated := run(true)
	if open.Shed != 0 {
		t.Fatalf("open-loop run shed %d queries without admission control", open.Shed)
	}
	if gated.Shed < 3000/4 {
		t.Fatalf("admission at ~1/3 of offered load shed only %d of 3000", gated.Shed)
	}
	if 4*gated.Latency.P99() >= open.Latency.P99() {
		t.Fatalf("admission should bound the overload tail: gated p99 %.6f vs open %.6f",
			gated.Latency.P99(), open.Latency.P99())
	}
	// Per-class accounting: both classes offered traffic, names surface
	// from the admission config, and every admitted query completed.
	if len(gated.Classes) != 2 {
		t.Fatalf("want 2 class rows, got %+v", gated.Classes)
	}
	admitted := 0
	for i, c := range gated.Classes {
		if c.Offered == 0 {
			t.Fatalf("class %d saw no traffic: %+v", i, gated.Classes)
		}
		if c.Delayed != 0 {
			t.Fatalf("shed-mode class %q reports delayed queries: %+v", c.Name, c)
		}
		admitted += c.Offered - c.Shed
	}
	if gated.Classes[0].Name != "gold" || gated.Classes[1].Name != "best-effort" {
		t.Fatalf("class names not taken from admission config: %+v", gated.Classes)
	}
	if got := int(gated.Latency.Count()); got != admitted {
		t.Fatalf("completed %d queries, admitted %d", got, admitted)
	}
	if gated.ClassFairness <= 0 || gated.ClassFairness > 1 {
		t.Fatalf("class-share fairness out of range: %g", gated.ClassFairness)
	}
}

// sloFleet assembles the full SLO-serving stack: range-granular adaptive
// hosts under a fleet migration coordinator, a weighted router running
// every scorer at once, a two-class workload, and admission with one shed
// and one queue class.
func sloFleet(t *testing.T, in *model.Instance, tables []*embedding.Table, n, workers int) (*Fleet, []*adapt.Adapter) {
	t.Helper()
	scfg := core.Config{
		Seed: 7, Ring: uring.Config{SGL: true}, CacheBytes: 1 << 16,
		ReserveSM: true, MigrationRangeBytes: 16 << 10,
		Placement: placement.Config{
			Policy: placement.SMOnlyWithCache, UserTablesOnly: true,
		},
	}
	hosts, err := HostSet(in, tables, n, &scfg, serving.Config{Spec: serving.HWSS(), InterOp: true})
	if err != nil {
		t.Fatal(err)
	}
	adapters, coord, err := AttachCoordinated(hosts, adapt.Config{
		Interval: 100 * time.Millisecond, BandwidthBytesPerSec: 8 << 20,
		ChunkBytes: 16 << 10, DRAMBudget: 5 * (96 << 10) / 2,
		Granularity: adapt.Ranges, WearDaysPerSecond: 0.005,
	}, CoordConfig{Slot: 50 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	router, err := NewWeightedRouter("slo-weighted",
		ScorerWeight{Scorer: NewAffinityScorer(n, 64), Weight: 1.0},
		ScorerWeight{Scorer: NewQueueScorer(), Weight: 0.4},
		ScorerWeight{Scorer: NewMigrationAvoidScorer(), Weight: 1.2},
		ScorerWeight{Scorer: NewLoadBalanceScorer(), Weight: 0.1},
		ScorerWeight{Scorer: NewWearScorer(), Weight: 0.2},
		ScorerWeight{Scorer: NewFMServedScorer(), Weight: 0.3},
	)
	if err != nil {
		t.Fatal(err)
	}
	f, err := New(hosts, router, Config{Seed: 11, HostWorkers: workers, Windows: 8})
	if err != nil {
		t.Fatal(err)
	}
	f.SetCoordinator(coord)
	f.SetAdapters(adapters)
	if err := f.SetAdmission(AdmitConfig{Classes: []ClassAdmit{
		{Name: "gold", RatePerSec: 200, Burst: 20},
		{Name: "bulk", RatePerSec: 120, Burst: 4, Queue: true},
	}}); err != nil {
		t.Fatal(err)
	}
	gen, err := workload.NewGenerator(in, workload.Config{
		Seed: 11, NumUsers: 800, UserAlpha: 0.9, Spatial: true, SLOClasses: 2,
		Drift: workload.DriftConfig{HotTables: 2, HotBoost: 4, ColdShrink: 0.25},
	})
	if err != nil {
		t.Fatal(err)
	}
	f.SetGenerator(gen)
	return f, adapters
}

func TestSLOFleetDeterministicAcrossWorkers(t *testing.T) {
	// The SLO-stack determinism contract: scorer routing reads only
	// synced virtual-time state, token buckets run on arrival order, and
	// class accounting folds at aggregation — so the full stack (all six
	// scorers + admission + coordinator + drift) stays bit-identical at
	// any worker count.
	in, tables := adaptiveFixture(t)
	var keys []string
	for _, workers := range []int{1, 4} {
		f, adapters := sloFleet(t, in, tables, 3, workers)
		if _, err := f.Run(300, 600); err != nil {
			t.Fatal(err)
		}
		if err := f.ScheduleDrift(0.5); err != nil {
			t.Fatal(err)
		}
		res, err := f.Run(300, 900)
		if err != nil {
			t.Fatal(err)
		}
		if workers == 1 {
			if len(res.Classes) != 2 {
				t.Fatalf("want 2 class rows, got %+v", res.Classes)
			}
			var activity int
			for _, c := range res.Classes {
				activity += c.Shed + c.Delayed
			}
			if activity == 0 {
				t.Fatalf("admission never engaged: %+v", res.Classes)
			}
			if res.LoadFairness <= 0 || res.ClassFairness <= 0 {
				t.Fatalf("fairness indices empty: load=%g class=%g",
					res.LoadFairness, res.ClassFairness)
			}
		}
		key := resultKey(t, res)
		for _, c := range res.Classes {
			key += c.String()
		}
		key += AdapterStats(adapters).String()
		keys = append(keys, key)
	}
	for i := 1; i < len(keys); i++ {
		if keys[i] != keys[0] {
			t.Fatalf("SLO fleet diverged across worker counts:\n%s\nvs\n%s", keys[0], keys[i])
		}
	}
}

// TestMaxQPSAtLatencyReturnsItsProbe: the search returns the Result of the
// rate it returns — the floor probe's when no probe meets the budget — and
// that Result's HitRate is the probe's own hit delta, not the cache's
// lifetime rate. An identical twin fleet replays the probes: a probe passes
// exactly when its rate is at most the returned one, so the returned rate
// alone fixes the probe sequence.
func TestMaxQPSAtLatencyReturnsItsProbe(t *testing.T) {
	in, tables := fixture(t)
	const lo, hi, n = 5.0, 4000.0, 150
	for _, budget := range []time.Duration{time.Nanosecond, 5 * time.Millisecond} {
		f := testFleet(t, in, tables, 1, NewRoundRobin(), Config{Seed: 3})
		qps, res, err := f.MaxQPSAtLatency(0.95, budget, lo, hi, n)
		if err != nil {
			t.Fatal(err)
		}
		if floorOnly := budget == time.Nanosecond; floorOnly != (qps == lo) {
			t.Fatalf("budget %v: max QPS %g (floor %g)", budget, qps, lo)
		}
		if res.OfferedQPS != qps || res.Queries != n {
			t.Fatalf("budget %v: returned %g QPS with the result of a %g-QPS probe of %d queries",
				budget, qps, res.OfferedQPS, res.Queries)
		}
		twin := testFleet(t, in, tables, 1, NewRoundRobin(), Config{Seed: 3})
		host := twin.members[0].host
		var want serving.CacheSnapshot
		var wantKey string
		probe := func(rate float64) {
			before := host.Snapshot()
			r, err := twin.Run(rate, n)
			if err != nil {
				t.Fatal(err)
			}
			if rate == qps {
				want, wantKey = host.Snapshot().Sub(before), resultKey(t, r)
			}
		}
		probe(lo)
		for a, b, i := lo, hi, 0; i < 12 && b/a > 1.05; i++ {
			mid := (a + b) / 2
			probe(mid)
			if mid <= qps {
				a = mid
			} else {
				b = mid
			}
		}
		if resultKey(t, res) != wantKey {
			t.Fatalf("budget %v: returned result differs from the twin's %g-QPS probe", budget, qps)
		}
		if res.HitRate != want.HitRate() || res.HitRate == host.Snapshot().HitRate() {
			t.Fatalf("budget %v: hit rate %v, probe's own %v, lifetime %v",
				budget, res.HitRate, want.HitRate(), host.Snapshot().HitRate())
		}
	}
}

func TestFlatHostSet(t *testing.T) {
	// A nil store config builds DRAM-baseline hosts; the fleet still runs
	// and, with the CPU-accounting fix, reports nonzero utilization.
	in, tables := fixture(t)
	hosts, err := HostSet(in, tables, 2, nil, serving.Config{Spec: serving.HWL(), InterOp: true})
	if err != nil {
		t.Fatal(err)
	}
	f, err := New(hosts, NewRoundRobin(), Config{Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	gen, err := workload.NewGenerator(in, workload.Config{Seed: 3, NumUsers: 100})
	if err != nil {
		t.Fatal(err)
	}
	f.SetGenerator(gen)
	res, err := f.Run(200, 200)
	if err != nil {
		t.Fatal(err)
	}
	if int(res.Latency.Count()) != 200 {
		t.Fatalf("flat fleet dropped queries: %d", res.Latency.Count())
	}
	if res.HitRate != 0 || res.Hosts[0].SMReads != 0 {
		t.Fatalf("flat hosts have no SM path: %+v", res)
	}
}
