package adapt

import (
	"testing"
	"time"

	"sdm/internal/core"
	"sdm/internal/model"
	"sdm/internal/placement"
	"sdm/internal/simclock"
	"sdm/internal/uring"
	"sdm/internal/workload"
)

// fixture builds a ReserveSM store over a small model plus a drifting
// generator whose spotlight rotates across the user tables.
func fixture(t *testing.T, parallelism int, budgetTables int) (*core.Store, *workload.Generator, *model.Instance) {
	t.Helper()
	mc := model.M1()
	mc.NumUserTables = 6
	mc.NumItemTables = 2
	mc.ItemBatch = 4
	mc.TotalBytes = 1 << 21
	inst, err := model.Build(mc, 1, 41)
	if err != nil {
		t.Fatal(err)
	}
	// Equalize user-table sizes: the adaptive regime of interest is a DRAM
	// budget that fits only a few comparable tables, so rotation forces
	// swaps (the stock log-uniform sizing can make a hot table trivially
	// small and permanently FM-resident).
	const perTable = 160 << 10
	for i := 0; i < mc.NumUserTables; i++ {
		inst.Tables[i].Rows = perTable / int64(inst.Tables[i].RowBytes())
	}
	tables, err := inst.Materialize()
	if err != nil {
		t.Fatal(err)
	}
	budget := int64(budgetTables)*perTable + perTable/2

	s, err := core.Open(inst, tables, core.Config{
		Seed: 17, ReserveSM: true, Ring: uring.Config{SGL: true},
		CacheBytes: 1 << 17, Parallelism: parallelism,
		Placement: placement.Config{
			Policy: placement.FixedFMWithCache, UserTablesOnly: true, DRAMBudget: budget,
		},
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	gen, err := workload.NewGenerator(inst, workload.Config{
		Seed: 19, NumUsers: 400, UserAlpha: 0.9,
		Drift: workload.DriftConfig{HotTables: 2, HotBoost: 4, ColdShrink: 0.25},
	})
	if err != nil {
		t.Fatal(err)
	}
	return s, gen, inst
}

// drive replays n queries 3 ms apart through the store, each after the
// adapter's BeforeAdmit hook, starting at start.
func drive(t *testing.T, s *core.Store, a *Adapter, gen *workload.Generator, start simclock.Time, n int) simclock.Time {
	t.Helper()
	var now simclock.Time
	for i := 0; i < n; i++ {
		now = start + simclock.Time(i)*simclock.Time(3*time.Millisecond)
		a.BeforeAdmit(now)
		q := gen.Next()
		outs := s.AllocOutputs(q)
		if _, err := s.PoolQuery(now, q, outs); err != nil {
			t.Fatal(err)
		}
	}
	return now + simclock.Time(3*time.Millisecond)
}

func fmSet(s *core.Store, inst *model.Instance) map[int]bool {
	out := map[int]bool{}
	for i := 0; i < inst.Config.NumUserTables; i++ {
		if s.TableStats(nil)[i].Target == placement.FM {
			out[i] = true
		}
	}
	return out
}

func TestAdapterPromotesHotTables(t *testing.T) {
	s, gen, inst := fixture(t, 1, 2)
	a, err := New(s, Config{Interval: 100 * time.Millisecond, BandwidthBytesPerSec: 8 << 20})
	if err != nil {
		t.Fatal(err)
	}
	end := drive(t, s, a, gen, s.LoadDone(), 1200)
	st := a.Stats()
	if st.Evals == 0 {
		t.Fatal("controller never evaluated")
	}
	if st.Promotions == 0 {
		t.Fatalf("controller never promoted: %s", st)
	}
	hot := map[int]bool{}
	for _, h := range gen.HotUserTables() {
		hot[h] = true
	}
	fm := fmSet(s, inst)
	for h := range hot {
		if !fm[h] {
			t.Fatalf("spotlight table %d not FM-resident after convergence: fm=%v stats=%s", h, fm, st)
		}
	}
	if len(fm) > 3 {
		t.Fatalf("FM set exceeds budget-sized fleet: %v", fm)
	}
	_ = end
	tl := wholeOf(a.telem, gen.HotUserTables()[0])
	if tl.Windows == 0 || tl.LookupRate <= 0 || tl.density() <= 0 {
		t.Fatalf("telemetry empty for hot table: %+v", tl)
	}
}

func TestAdapterReactsToRotation(t *testing.T) {
	s, gen, inst := fixture(t, 1, 2)
	a, err := New(s, Config{Interval: 100 * time.Millisecond, BandwidthBytesPerSec: 8 << 20})
	if err != nil {
		t.Fatal(err)
	}
	end := drive(t, s, a, gen, s.LoadDone(), 1200)
	before := fmSet(s, inst)
	gen.ForceRotation()
	drive(t, s, a, gen, end, 1200)
	after := fmSet(s, inst)
	st := a.Stats()
	if st.Demotions == 0 {
		t.Fatalf("rotation should demote stale FM residents: %s", st)
	}
	hot := gen.HotUserTables()
	for _, h := range hot {
		if !after[h] {
			t.Fatalf("post-rotation spotlight %v not FM-resident (fm=%v, was %v): %s", hot, after, before, st)
		}
	}
	same := true
	for k := range before {
		if !after[k] {
			same = false
		}
	}
	if same && len(before) == len(after) {
		t.Fatalf("FM set did not move across the rotation: %v", after)
	}
}

func TestAdapterParallelismInvariant(t *testing.T) {
	// The control loop keys off op-order-folded counters, so the whole
	// adaptive trajectory must be identical at any query-engine width.
	run := func(par int) (Stats, core.Stats, map[int]bool) {
		s, gen, inst := fixture(t, par, 2)
		a, err := New(s, Config{Interval: 100 * time.Millisecond, BandwidthBytesPerSec: 4 << 20})
		if err != nil {
			t.Fatal(err)
		}
		end := drive(t, s, a, gen, s.LoadDone(), 800)
		gen.ForceRotation()
		drive(t, s, a, gen, end, 800)
		return a.Stats(), s.Stats(), fmSet(s, inst)
	}
	s1, c1, f1 := run(1)
	s4, c4, f4 := run(4)
	if s1 != s4 {
		t.Fatalf("adapter stats diverged across parallelism:\n%+v\n%+v", s1, s4)
	}
	if c1 != c4 {
		t.Fatalf("store stats diverged across parallelism:\n%+v\n%+v", c1, c4)
	}
	if len(f1) != len(f4) {
		t.Fatalf("FM sets diverged: %v vs %v", f1, f4)
	}
	for k := range f1 {
		if !f4[k] {
			t.Fatalf("FM sets diverged: %v vs %v", f1, f4)
		}
	}
}

func TestBandwidthCapPacesMigration(t *testing.T) {
	// With a cap, a table's migration must span at least bytes/bandwidth
	// of virtual time; unpaced it collapses to one admission instant.
	elapsed := func(bw float64) time.Duration {
		s, gen, _ := fixture(t, 1, 2)
		a, err := New(s, Config{Interval: 100 * time.Millisecond, BandwidthBytesPerSec: bw, ChunkBytes: 16 << 10})
		if err != nil {
			t.Fatal(err)
		}
		var start, done simclock.Time
		now := s.LoadDone()
		for i := 0; i < 2000; i++ {
			tnow := now + simclock.Time(i)*simclock.Time(3*time.Millisecond)
			prev := a.Stats().Promotions + a.Stats().Demotions
			a.BeforeAdmit(tnow)
			if start == 0 && a.PendingMigrations() > 0 {
				start = tnow
			}
			if done == 0 && prev == 0 && a.Stats().Promotions+a.Stats().Demotions > 0 {
				done = tnow
				break
			}
			q := gen.Next()
			outs := s.AllocOutputs(q)
			if _, err := s.PoolQuery(tnow, q, outs); err != nil {
				t.Fatal(err)
			}
		}
		if start == 0 || done == 0 {
			t.Fatalf("no migration observed at bw=%g", bw)
		}
		return (done - start).Duration()
	}
	slow := elapsed(512 << 10) // 512 KiB/s
	fast := elapsed(0)         // unpaced
	if slow < 4*fast || slow < 50*time.Millisecond {
		t.Fatalf("bandwidth cap did not pace migration: capped=%v unpaced=%v", slow, fast)
	}
}

func TestWearBudgetPacesDemoteWrites(t *testing.T) {
	// With WearDaysPerSecond set, the per-window SM write budget caps the
	// demote bytes the actuator issues in any one eval window (chunk
	// granular: overshoot bounded by one chunk), spreading the endurance
	// spend over time instead of dumping it — while the controller still
	// adapts through the rotation. Without it a whole-table demotion
	// lands its writes inside a single window.
	const (
		interval = 100 * time.Millisecond
		chunk    = 16 << 10
	)
	run := func(wear float64) (maxPerWindow int64, budget int64, st Stats) {
		s, gen, _ := fixture(t, 1, 2)
		a, err := New(s, Config{
			Interval:             interval,
			BandwidthBytesPerSec: 8 << 20,
			ChunkBytes:           chunk,
			WearDaysPerSecond:    wear,
		})
		if err != nil {
			t.Fatal(err)
		}
		budget = int64(s.Wear().DailyWriteBudgetBytes() * wear * interval.Seconds())
		windows := map[simclock.Time]int64{}
		var prev uint64
		step := func(start simclock.Time, n int) simclock.Time {
			var now simclock.Time
			for i := 0; i < n; i++ {
				now = start + simclock.Time(i)*simclock.Time(3*time.Millisecond)
				a.BeforeAdmit(now)
				cur := s.Stats().DemoteWriteBytes
				windows[now/simclock.Time(interval)] += int64(cur - prev)
				prev = cur
				q := gen.Next()
				if _, err := s.PoolQuery(now, q, s.AllocOutputs(q)); err != nil {
					t.Fatal(err)
				}
			}
			return now + simclock.Time(3*time.Millisecond)
		}
		end := step(s.LoadDone(), 1200)
		gen.ForceRotation()
		step(end, 1200)
		for _, b := range windows {
			if b > maxPerWindow {
				maxPerWindow = b
			}
		}
		return maxPerWindow, budget, a.Stats()
	}

	freeMax, _, freeStats := run(0)
	wearMax, budget, wearStats := run(0.01)
	if freeStats.Demotions == 0 || freeMax == 0 {
		t.Fatalf("wear-free run never demoted: %s", freeStats)
	}
	if wearStats.Promotions == 0 || wearStats.Demotions == 0 {
		t.Fatalf("wear budget froze the controller entirely: %s", wearStats)
	}
	if budget <= 0 || budget > freeMax {
		t.Fatalf("fixture budget %d not binding vs unconstrained per-window max %d", budget, freeMax)
	}
	if wearMax > budget+chunk {
		t.Fatalf("windowed demote writes %d exceed budget %d + chunk %d", wearMax, budget, chunk)
	}
	if wearMax >= freeMax {
		t.Fatalf("wear budget did not pace demote writes: max/window %d vs unconstrained %d", wearMax, freeMax)
	}
}

func TestSelfWindowDemoteBudgetTracksEndurance(t *testing.T) {
	// The ungoverned wear window derives its budget from the device's
	// DWPD rating and remaining rated life.
	s, _, _ := fixture(t, 1, 2)
	a, err := New(s, Config{Interval: 100 * time.Millisecond, WearDaysPerSecond: 1})
	if err != nil {
		t.Fatal(err)
	}
	w, ok := a.act.windowAt(12345)
	if !ok {
		t.Fatal("wear-aware adapter installed no window schedule")
	}
	wear := s.Wear()
	want := int64(wear.DailyWriteBudgetBytes() * 1 * 0.1)
	if w.DemoteBudgetBytes != want {
		t.Fatalf("window demote budget %d, want %d (daily %g, life %.3f)",
			w.DemoteBudgetBytes, want, wear.DailyWriteBudgetBytes(), wear.LifeFrac())
	}
	if w.Close-w.Open != simclock.Time(100*time.Millisecond) {
		t.Fatalf("self window width %v, want the eval interval", w.Close-w.Open)
	}
}

func TestNewValidation(t *testing.T) {
	if _, err := New(nil, Config{}); err == nil {
		t.Fatal("nil store should fail")
	}
	mc := model.M1()
	mc.NumUserTables = 2
	mc.NumItemTables = 1
	mc.TotalBytes = 1 << 18
	inst, err := model.Build(mc, 1, 3)
	if err != nil {
		t.Fatal(err)
	}
	tables, err := inst.Materialize()
	if err != nil {
		t.Fatal(err)
	}
	plain, err := core.Open(inst, tables, core.Config{Seed: 1, Ring: uring.Config{SGL: true}}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := New(plain, Config{DRAMBudget: 1 << 20}); err == nil {
		t.Fatal("store without ReserveSM should fail")
	}
	res, err := core.Open(inst, tables, core.Config{
		Seed: 1, ReserveSM: true, Ring: uring.Config{SGL: true},
		Placement: placement.Config{Policy: placement.SMOnlyWithCache, UserTablesOnly: true},
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := New(res, Config{}); err == nil {
		t.Fatal("missing DRAM budget should fail")
	}
	if _, err := New(res, Config{DRAMBudget: 1 << 20}); err != nil {
		t.Fatalf("valid adapter rejected: %v", err)
	}
}
