package experiments

import (
	"bytes"
	"reflect"
	"strings"
	"testing"
)

// quick returns a very small scale for fast tests.
func quick() Scale {
	return Scale{ModelScale: 1.5e-6, Queries: 120, Seed: 7}
}

func runExp(t *testing.T, id string) Result {
	t.Helper()
	res, err := Run(id, quick())
	if err != nil {
		t.Fatalf("%s: %v", id, err)
	}
	var buf bytes.Buffer
	res.Print(&buf)
	if buf.Len() == 0 {
		t.Fatalf("%s printed nothing", id)
	}
	if res.ID() != id {
		t.Fatalf("id mismatch: %s vs %s", res.ID(), id)
	}
	return res
}

func TestRegistryComplete(t *testing.T) {
	// Every table and figure of the evaluation must have a runner.
	want := []string{
		"fig1", "tab1", "fig3", "tab2", "fig4", "fig5", "fig6",
		"tab3", "tab4", "tab8", "tab9", "tab10", "tab11", "cluster", "fleetscale", "alloc", "drift",
		"rowrange", "coord", "slo", "sgl", "mmap", "deprune", "dequant", "interop", "polling", "warmup", "update",
	}
	got := IDs()
	if len(got) != len(want) {
		t.Fatalf("registry has %d entries, want %d", len(got), len(want))
	}
	for _, id := range want {
		if Title(id) == "" {
			t.Errorf("missing title for %s", id)
		}
	}
	if _, err := Run("nope", quick()); err == nil {
		t.Fatal("unknown id should fail")
	}
}

// TestMemStatsExperimentsAreExclusive: alloc and fleetscale read
// process-global runtime.MemStats deltas, so a parallel harness must run them
// with nothing else allocating (under `sdmbench all`, fleetscale's alloc(MB)
// used to count every concurrently running experiment's garbage).
func TestMemStatsExperimentsAreExclusive(t *testing.T) {
	for _, id := range IDs() {
		if want := id == "alloc" || id == "fleetscale"; Exclusive(id) != want {
			t.Errorf("Exclusive(%q) = %v, want %v", id, Exclusive(id), want)
		}
	}
}

func TestAlloc(t *testing.T) {
	res := runExp(t, "alloc").(*AllocResult)
	// The engine hot path is the zero-alloc contract; a little headroom
	// absorbs incidental runtime allocations on slow machines.
	if res.EngineBPerQuery > 64 {
		t.Fatalf("engine path allocates %.1f B/query, want ~0", res.EngineBPerQuery)
	}
	// The fleet path keeps only aggregate per-run costs (histograms,
	// result assembly) — well under a kilobyte amortized per query.
	if res.FleetBPerQuery > 1024 {
		t.Fatalf("fleet path allocates %.1f B/query, want < 1024", res.FleetBPerQuery)
	}
}

func TestFig1(t *testing.T) {
	res := runExp(t, "fig1").(*Fig1Result)
	if res.LowBWCapacityFrac < 0.3 {
		t.Fatalf("low-BW capacity fraction %.2f; Fig. 1 expects the majority of capacity at low BW", res.LowBWCapacityFrac)
	}
	if res.UserBytes <= 0 || res.TotalBytes <= res.UserBytes {
		t.Fatalf("byte accounting: user=%d total=%d", res.UserBytes, res.TotalBytes)
	}
}

func TestTab1(t *testing.T) {
	var buf bytes.Buffer
	runExp(t, "tab1").Print(&buf)
	for _, name := range []string{"Nand", "Optane", "ZSSD", "CXL"} {
		if !strings.Contains(buf.String(), name) {
			t.Errorf("catalog missing %s", name)
		}
	}
}

func TestFig3Shape(t *testing.T) {
	res := runExp(t, "fig3").(*Fig3Result)
	nand := res.Curves["PCIe Nand Flash"]
	opt := res.Curves["PCIe 3DXP (Optane)"]
	if len(nand) == 0 || len(opt) == 0 {
		t.Fatal("missing curves")
	}
	// Fig. 3 shape: Optane latency at its knee far below Nand's.
	if opt[0].MeanLatency >= nand[0].MeanLatency {
		t.Fatalf("Optane low-load latency %v should undercut Nand %v",
			opt[0].MeanLatency, nand[0].MeanLatency)
	}
	// Latency must rise toward the ceiling for both.
	if nand[len(nand)-1].MeanLatency <= nand[0].MeanLatency {
		t.Fatal("Nand latency should rise with load")
	}
	// Optane's achievable IOPS ≫ Nand's.
	if opt[len(opt)-1].AchievedIOPS < 4*nand[len(nand)-1].AchievedIOPS {
		t.Fatalf("Optane IOPS %f should be several times Nand %f",
			opt[len(opt)-1].AchievedIOPS, nand[len(nand)-1].AchievedIOPS)
	}
}

// TestFig3PinnedAcrossRingPort pins the 12 default-scale points captured
// at 74dfbb3, when profileDevice still drove the callback ring from the
// event-loop clock: the port to SubmitSync bookings must reproduce every
// field exactly.
func TestFig3PinnedAcrossRingPort(t *testing.T) {
	want := map[string][]Fig3Point{
		"PCIe Nand Flash": {
			{50000, 50252.39011674183, 191655, 785991},
			{150000, 150260.92810164852, 191655, 785991},
			{250000, 249611.99894863425, 191655, 785991},
			{350000, 348318.3364873559, 191829, 785991},
			{425000, 421032.6583805568, 193244, 785991},
			{475000, 461032.67323187436, 235613, 834100},
		},
		"PCIe 3DXP (Optane)": {
			{400000, 402091.0342143282, 10941, 11039},
			{1.2e+06, 1.202775524801031e+06, 10941, 11039},
			{2e+06, 1.998671549643337e+06, 10941, 11039},
			{2.8e+06, 2.7902953527630903e+06, 10941, 11039},
			{3.4e+06, 3.380605466439039e+06, 10941, 11039},
			{3.8e+06, 3.7714453812994137e+06, 11161, 11808},
		},
	}
	res, err := Fig3(Default())
	if err != nil {
		t.Fatal(err)
	}
	if got := res.(*Fig3Result).Curves; !reflect.DeepEqual(got, want) {
		t.Fatalf("fig3 moved:\n got %v\nwant %v", got, want)
	}
}

func TestTab2(t *testing.T) { runExp(t, "tab2") }

func TestFig4Shape(t *testing.T) {
	res := runExp(t, "fig4").(*Fig4Result)
	last := len(res.UserCDF) - 1
	if res.UserCDF[last] < 0.99 || res.ItemCDF[last] < 0.99 {
		t.Fatal("CDFs must reach 1.0 at full population")
	}
	// Item locality > user locality at the 10% point (index of 0.1).
	idx10 := -1
	for i, f := range []float64{0.0001, 0.001, 0.01, 0.05, 0.1, 0.2, 0.5, 1.0} {
		if f == 0.1 {
			idx10 = i
		}
	}
	if res.ItemCDF[idx10] <= res.UserCDF[idx10] {
		t.Fatalf("item CDF %.3f should exceed user %.3f at 10%% rows",
			res.ItemCDF[idx10], res.UserCDF[idx10])
	}
}

func TestFig5Shape(t *testing.T) {
	res := runExp(t, "fig5").(*Fig5Result)
	if res.AvgUser <= 0 || res.AvgItem <= 0 {
		t.Fatal("missing averages")
	}
	// Fig. 5: low spatial locality overall.
	if res.AvgUser > 0.6 {
		t.Fatalf("user spatial locality %.2f too high for the Fig. 5 regime", res.AvgUser)
	}
}

func TestTab3(t *testing.T) { runExp(t, "tab3") }
func TestTab4(t *testing.T) { runExp(t, "tab4") }

func TestTab8Shape(t *testing.T) {
	res := runExp(t, "tab8").(*Tab8Result)
	// Table 8's qualitative claims: the small host sustains a usable
	// fraction of the big host's QPS, and the fleet saves power.
	if res.SDMQPS <= 0 || res.BaselineQPS <= 0 {
		t.Fatal("QPS measurements missing")
	}
	if res.SDMQPS > res.BaselineQPS {
		t.Fatalf("SDM on the small host (%.0f) should not beat the big DRAM host (%.0f)",
			res.SDMQPS, res.BaselineQPS)
	}
	if res.Saving <= 0 {
		t.Fatalf("SDM fleet should save power, got %.2f", res.Saving)
	}
	if res.HitRate < 0.5 {
		t.Fatalf("steady-state hit rate %.2f too low", res.HitRate)
	}
}

func TestTab9Shape(t *testing.T) {
	res := runExp(t, "tab9").(*Tab9Result)
	// Table 9's qualitative claim: Optane sustains more QPS than Nand.
	if res.OptaneQPS <= res.NandQPS {
		t.Fatalf("Optane QPS %.0f should exceed Nand %.0f", res.OptaneQPS, res.NandQPS)
	}
}

func TestTab10(t *testing.T) {
	var buf bytes.Buffer
	runExp(t, "tab10").Print(&buf)
	if !strings.Contains(buf.String(), "M3") {
		t.Fatal("missing M3 row")
	}
}

func TestTab11(t *testing.T) { runExp(t, "tab11") }

func TestCluster(t *testing.T) {
	// Acceptance: sticky hashing improves per-host cache hit rate over
	// round-robin on the same trace, and the host-failure scenario
	// completes with rerouted users and a visible warmup signature.
	res := runExp(t, "cluster").(*ClusterResult)
	if res.StickyHitRate <= res.RRHitRate {
		t.Fatalf("sticky hit rate %.3f should beat round-robin %.3f", res.StickyHitRate, res.RRHitRate)
	}
	if res.ReroutedUsers == 0 {
		t.Fatal("failure drill rerouted no users")
	}
	// The §A.4 warmup signature: rerouted users hit cold survivor caches.
	// The hit-rate drop is the robust signal — the latency ratio is
	// reported too, but Eq. 3 hides much of the user-side IO behind the
	// item path, so it is noisy at test scale.
	if res.WarmupHitDrop <= 0 {
		t.Fatalf("rerouted users should hit cold caches: drop=%.4f", res.WarmupHitDrop)
	}
	if res.WarmupSpike <= 0 {
		t.Fatalf("warmup spike should be measured: %g", res.WarmupSpike)
	}
	if res.ClusterHosts <= 0 || res.SingleExtrapolationHosts <= 0 {
		t.Fatalf("provisioning paths: cluster=%d single=%d", res.ClusterHosts, res.SingleExtrapolationHosts)
	}
}

func TestDrift(t *testing.T) {
	// The adaptive-tiering acceptance drill, asserted deterministically
	// for the fixed test seed.
	res := runExp(t, "drift").(*DriftResult)

	// The rotation must produce a real FM-served drop on both hosts.
	if drop := res.AdaptPre - res.AdaptPost; drop < 0.2 {
		t.Fatalf("rotation barely moved the adaptive FM rate: pre=%.3f post=%.3f", res.AdaptPre, res.AdaptPost)
	}
	if drop := res.StaticPre - res.StaticPost; drop < 0.2 {
		t.Fatalf("rotation barely moved the static FM rate: pre=%.3f post=%.3f", res.StaticPre, res.StaticPost)
	}

	// Adaptive placement recovers at least half of the drop within the
	// run; static does not.
	if res.AdaptRecovery < 0.5 {
		t.Fatalf("adaptive recovery %.2f < 0.5 (pre=%.3f post=%.3f final=%.3f)",
			res.AdaptRecovery, res.AdaptPre, res.AdaptPost, res.AdaptFinal)
	}
	if res.StaticRecovery >= 0.5 {
		t.Fatalf("static placement should stay degraded, recovered %.2f", res.StaticRecovery)
	}
	if res.AdaptFinal < res.StaticFinal+0.3 {
		t.Fatalf("adaptive final FM rate %.3f not clearly above static %.3f", res.AdaptFinal, res.StaticFinal)
	}

	// The recovery must come from actual bandwidth-accounted migrations.
	if res.Promotions == 0 || res.Demotions == 0 || res.MigratedBytes == 0 {
		t.Fatalf("no migrations recorded: %d promotions, %d demotions, %d bytes",
			res.Promotions, res.Demotions, res.MigratedBytes)
	}

	// The bandwidth cap measurably bounds the foreground tail penalty
	// during migration: unpaced migration dumps the table onto the
	// devices and the worst foreground query pays for it.
	if res.CappedPeakLat*2 >= res.UnpacedPeakLat {
		t.Fatalf("cap did not bound the migration burst: capped peak %.2fms vs unpaced %.2fms",
			res.CappedPeakLat*1e3, res.UnpacedPeakLat*1e3)
	}
	if res.CappedPeakP99 > res.UnpacedPeakP99 {
		t.Fatalf("capped post-rotation p99 %.2fms above unpaced %.2fms",
			res.CappedPeakP99*1e3, res.UnpacedPeakP99*1e3)
	}
}

func TestRowRange(t *testing.T) {
	// The partial-table migration acceptance drill, asserted
	// deterministically for the fixed test seed: under the same drift,
	// DRAM budget and bandwidth cap, range-granular adaptation holds the
	// FM-served rate within 5 points of whole-table adaptation while
	// migrating at most half the bytes.
	res := runExp(t, "rowrange").(*RowRangeResult)

	// The rotation must genuinely hurt whole-table placement (its budget
	// fits only the spotlight tables) before it recovers.
	if drop := res.TablePre - res.TablePost; drop < 0.05 {
		t.Fatalf("rotation barely moved the whole-table FM rate: pre=%.3f post=%.3f", res.TablePre, res.TablePost)
	}
	if res.TableRecovery < 0.5 {
		t.Fatalf("whole-table adaptation failed to recover: %.2f (pre=%.3f post=%.3f final=%.3f)",
			res.TableRecovery, res.TablePre, res.TablePost, res.TableFinal)
	}

	// Acceptance: range granularity ends within 5 points of whole-table…
	if res.RangeFinal < res.TableFinal-0.05 {
		t.Fatalf("range-granular final FM rate %.3f more than 5 points below whole-table %.3f",
			res.RangeFinal, res.TableFinal)
	}
	// …while its residency (hot heads of every table) also softens the
	// drop itself…
	if res.RangePost < res.TablePost {
		t.Fatalf("range-granular post-rotation FM rate %.3f below whole-table %.3f",
			res.RangePost, res.TablePost)
	}
	// …and migrating at most half the bytes under the same cap.
	if res.TableBytes == 0 || res.RangeBytes*2 > res.TableBytes {
		t.Fatalf("range granularity migrated %d bytes vs %d whole-table (want <= 50%%)",
			res.RangeBytes, res.TableBytes)
	}

	// The FM service must actually come from FM-resident ranges, and the
	// repeated run at a different HostWorkers count must be bit-identical.
	if res.RangeServedFinal < 0.5 {
		t.Fatalf("final-window range-served rate %.3f too low for a range-resident regime", res.RangeServedFinal)
	}
	if !res.WorkersDeterministic {
		t.Fatal("range drill diverged across HostWorkers counts")
	}
}

func TestCoord(t *testing.T) {
	// The fleet-coordination acceptance drill, asserted deterministically
	// for the fixed test seed: under sustained drift, the staggered
	// wear-aware fleet recovers to the same FM-served rate as N
	// independent adapters while spending fewer SM demote-bytes, and its
	// post-rotation fleet tail stays within 2x the single-host
	// bandwidth-capped reference instead of spiking with the lockstep
	// burst. The drill runs at its canonical Default scale — the same
	// scale the CI benchmark trajectory records — because the wear
	// budget's bind point is calibrated to the default drill geometry
	// (warmup length and rotation period).
	resAny, err := Run("coord", Default())
	if err != nil {
		t.Fatal(err)
	}
	res := resAny.(*CoordResult)

	// The drill is real: both fleets migrate, and the lockstep fleet
	// pays demote writes for every rotation.
	if res.LockSMWrites == 0 || res.CoordSMWrites == 0 {
		t.Fatalf("fleets spent no endurance: lockstep %d, coordinated %d", res.LockSMWrites, res.CoordSMWrites)
	}

	// Acceptance: the coordinated fleet's post-rotation p99 stays within
	// 2x the single-host bandwidth-capped tail…
	if res.SinglePeakP99 <= 0 || res.CoordPeakP99 > 2*res.SinglePeakP99 {
		t.Fatalf("coordinated peak post-rotation p99 %.2fms above 2x single-host capped %.2fms",
			res.CoordPeakP99*1e3, res.SinglePeakP99*1e3)
	}
	// …while the lockstep fleet's simultaneous unpaced bursts push both
	// its worst window p99 and its worst single query above the
	// coordinated fleet's.
	if res.LockPeakP99 <= res.CoordPeakP99 {
		t.Fatalf("lockstep peak p99 %.2fms not above coordinated %.2fms",
			res.LockPeakP99*1e3, res.CoordPeakP99*1e3)
	}
	if res.LockPeakLat <= res.CoordPeakLat {
		t.Fatalf("lockstep burst %.2fms not above coordinated %.2fms",
			res.LockPeakLat*1e3, res.CoordPeakLat*1e3)
	}

	// Acceptance: fewer total SM demote-bytes than N independent
	// adapters (meaningfully fewer — at least 10% saved)…
	if res.CoordSMWrites*10 >= res.LockSMWrites*9 {
		t.Fatalf("coordinated SM writes %d not meaningfully below lockstep %d",
			res.CoordSMWrites, res.LockSMWrites)
	}
	// …at equal final FM-served recovery (within 5 points).
	if res.CoordFinal < res.LockFinal-0.05 {
		t.Fatalf("coordinated final FM rate %.3f more than 5 points below lockstep %.3f",
			res.CoordFinal, res.LockFinal)
	}

	// The DWPD projection orders the same way as the raw spend.
	if res.CoordDWPDUtil >= res.LockDWPDUtil {
		t.Fatalf("coordinated DWPD utilization %.2f not below lockstep %.2f",
			res.CoordDWPDUtil, res.LockDWPDUtil)
	}

	// The coordinated run repeated at HostWorkers=4 must be bit-identical.
	if !res.WorkersDeterministic {
		t.Fatal("coordinated drill diverged across HostWorkers counts")
	}
}

func TestSLO(t *testing.T) {
	// The SLO-aware serving acceptance drill, asserted deterministically
	// for the fixed seed. Like the coord drill it runs at its canonical
	// Default scale: the routing margin lives in the drill's congestion
	// regime, which the scale's query count and QPS jointly set.
	resAny, err := Run("slo", Default())
	if err != nil {
		t.Fatal(err)
	}
	res := resAny.(*SLOResult)

	// Acceptance: under the coordinated drift drill the migration-aware
	// weighted router beats sticky hashing on post-rotation fleet p99…
	if res.WeightedPeakP99 >= res.StickyPeakP99 {
		t.Fatalf("weighted peak post-rotation p99 %.2fms not below sticky %.2fms",
			res.WeightedPeakP99*1e3, res.StickyPeakP99*1e3)
	}
	// …while keeping the FM-served rate within one point.
	if d := res.WeightedFinalFM - res.StickyFinalFM; d < -0.01 || d > 0.01 {
		t.Fatalf("weighted final FM rate %.3f drifted more than 1 point from sticky %.3f",
			res.WeightedFinalFM, res.StickyFinalFM)
	}

	// Acceptance: the utilization sweep reproduces the BLIS crossover —
	// sticky's locality win at low load, round-robin's even spread
	// winning the tail once the hottest replica saturates.
	if res.LowHitSticky <= res.LowHitRR {
		t.Fatalf("sticky low-load hit rate %.3f should beat round-robin %.3f",
			res.LowHitSticky, res.LowHitRR)
	}
	if res.StickyP99[0] > 2*res.RRP99[0] {
		t.Fatalf("low-load sticky p99 %.2fms should stay comparable to rr %.2fms",
			res.StickyP99[0]*1e3, res.RRP99[0]*1e3)
	}
	if res.StickyP99[2] < 4*res.RRP99[2] {
		t.Fatalf("high-load sticky p99 %.2fms should exceed 4x rr %.2fms",
			res.StickyP99[2]*1e3, res.RRP99[2]*1e3)
	}

	// Acceptance: per-class admission bounds the 2x-overload tail, and the
	// bound's cost is a visible, accounted shed share.
	if 4*res.GatedP99 > res.OpenP99 {
		t.Fatalf("gated p99 %.2fms not at least 4x below open-loop %.2fms",
			res.GatedP99*1e3, res.OpenP99*1e3)
	}
	if res.ShedShare < 0.25 {
		t.Fatalf("2x overload should shed a substantial share, got %.2f", res.ShedShare)
	}

	// Acceptance: the decision trace proves the PR-6 negative result
	// per-decision — a queue weight below affinity's never moves a user —
	// while the config-level counterfactual (both traces joined on
	// arrival sequence) shows migration-aware routing beat sticky
	// query-for-query after the rotation.
	if res.QueueRoutes == 0 || res.QueueDiversions != 0 {
		t.Fatalf("queue-below-affinity drill diverted %d of %d routes, want 0 of >0",
			res.QueueDiversions, res.QueueRoutes)
	}
	if res.RegretJoined == 0 || res.RegretVsStickyMS >= 0 {
		t.Fatalf("post-rotation regret vs sticky %+.4fms over %d joined queries, want negative over >0",
			res.RegretVsStickyMS, res.RegretJoined)
	}

	// The weighted drill and the gated overload repeated at HostWorkers=4
	// must be bit-identical.
	if !res.WorkersDeterministic {
		t.Fatal("slo drill diverged across HostWorkers counts")
	}
}

func TestReportOf(t *testing.T) {
	res := runExp(t, "tab10")
	rep := ReportOf(res)
	if rep.ID != "tab10" || rep.Title == "" || len(rep.Rows) == 0 || rep.Header == "" {
		t.Fatalf("report %+v", rep)
	}
}

func TestSGLShape(t *testing.T) {
	res := runExp(t, "sgl").(*SGLResult)
	if res.BusSavings < 0.5 {
		t.Fatalf("bus savings %.2f too low (paper: ~75%%)", res.BusSavings)
	}
	if res.FMTrafficRatio < 2 {
		t.Fatalf("FM traffic ratio %.2f, want >2x (paper §4.3)", res.FMTrafficRatio)
	}
	if res.LatencySaving <= 0 {
		t.Fatalf("SGL should save latency, got %.3f", res.LatencySaving)
	}
}

func TestMmapShape(t *testing.T) {
	res := runExp(t, "mmap").(*MmapResult)
	if res.LatencyRatio < 1.5 {
		t.Fatalf("mmap latency ratio %.1f, want ≈3x (paper §4.1)", res.LatencyRatio)
	}
}

func TestDepruneShape(t *testing.T) {
	res := runExp(t, "deprune").(*DepruneResult)
	if res.ExtraRequestFrac <= 0 || res.ExtraRequestFrac > 0.5 {
		t.Fatalf("extra requests %.3f outside the plausible band (paper: +2.5%%)", res.ExtraRequestFrac)
	}
	if res.CacheGainFrac <= 0 {
		t.Fatalf("deprune must enlarge the cache budget, got %.3f", res.CacheGainFrac)
	}
}

func TestDequantShape(t *testing.T) {
	res := runExp(t, "dequant").(*DequantResult)
	if res.SMGrowth <= 0 {
		t.Fatal("fp32 expansion must grow SM")
	}
}

func TestInterOpShape(t *testing.T) {
	res := runExp(t, "interop").(*InterOpResult)
	if res.LatencyReduction <= 0 {
		t.Fatalf("inter-op must reduce latency, got %.3f", res.LatencyReduction)
	}
}

func TestPollingShape(t *testing.T) {
	res := runExp(t, "polling").(*PollingResult)
	if res.Gain < 0.3 || res.Gain > 0.7 {
		t.Fatalf("polling gain %.2f, want ≈0.5", res.Gain)
	}
}

// TestPollingPinned pins both IOPS/core rows and the gain captured at
// 74dfbb3, before Polling moved off the callback ring.
func TestPollingPinned(t *testing.T) {
	res, err := Polling(Default())
	if err != nil {
		t.Fatal(err)
	}
	pr := res.(*PollingResult)
	want := []string{
		"IOPS/core, IRQ completions:         653168",
		"IOPS/core, polled completions:      969932",
		"polling gain:                          48%  (paper: ~50%)",
	}
	if !reflect.DeepEqual(pr.Rows(), want) || pr.Gain != 0.4849660523763337 {
		t.Fatalf("polling moved: gain %v rows %q", pr.Gain, pr.Rows())
	}
}

func TestWarmup(t *testing.T) { runExp(t, "warmup") }

func TestUpdate(t *testing.T) {
	var buf bytes.Buffer
	runExp(t, "update").Print(&buf)
	out := buf.String()
	if !strings.Contains(out, "Nand") || !strings.Contains(out, "Optane") {
		t.Fatal("update experiment should compare Nand and Optane")
	}
}

func TestFig6(t *testing.T) {
	if testing.Short() {
		t.Skip("fig6 runs several QPS searches")
	}
	runExp(t, "fig6")
}

func TestScalePresets(t *testing.T) {
	d, f := Default(), Full()
	if d.Queries >= f.Queries || d.ModelScale >= f.ModelScale {
		t.Fatal("Full must exceed Default")
	}
	if d.ModelScale <= 0 {
		t.Fatal("bad default scale")
	}
}
