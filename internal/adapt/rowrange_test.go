package adapt

import (
	"errors"
	"math"
	"strings"
	"testing"
	"time"

	"sdm/internal/core"
	"sdm/internal/model"
	"sdm/internal/placement"
	"sdm/internal/simclock"
	"sdm/internal/uring"
	"sdm/internal/workload"
)

// rangeFixture builds a ReserveSM store whose swappable tables split into
// several ranges, over a spatial (identity-permuted) drifting workload so
// each table's hot rows cluster in its head ranges.
func rangeFixture(t *testing.T, parallelism int) (*core.Store, *workload.Generator, *model.Instance) {
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
	const perTable = 160 << 10
	for i := 0; i < mc.NumUserTables; i++ {
		inst.Tables[i].Rows = perTable / int64(inst.Tables[i].RowBytes())
		inst.Tables[i].Alpha = 1.1 // sharpen row skew: hot heads, cold tails
	}
	tables, err := inst.Materialize()
	if err != nil {
		t.Fatal(err)
	}
	s, err := core.Open(inst, tables, core.Config{
		Seed: 17, ReserveSM: true, Ring: uring.Config{SGL: true},
		CacheBytes: 1 << 17, Parallelism: parallelism,
		MigrationRangeBytes: 16 << 10, // 10 ranges per table
		Placement: placement.Config{
			Policy: placement.SMOnlyWithCache, UserTablesOnly: true,
		},
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	gen, err := workload.NewGenerator(inst, workload.Config{
		Seed: 19, NumUsers: 400, UserAlpha: 0.9, Spatial: true,
		Drift: workload.DriftConfig{HotTables: 2, HotBoost: 4, ColdShrink: 0.25},
	})
	if err != nil {
		t.Fatal(err)
	}
	return s, gen, inst
}

func rangeAdapter(t *testing.T, s *core.Store, bw float64) *Adapter {
	t.Helper()
	a, err := New(s, Config{
		Interval: 100 * time.Millisecond, BandwidthBytesPerSec: bw,
		DRAMBudget: 400 << 10, Granularity: Ranges, ChunkBytes: 8 << 10,
	})
	if err != nil {
		t.Fatal(err)
	}
	return a
}

func TestRangeAdapterPromotesHotRanges(t *testing.T) {
	s, gen, inst := rangeFixture(t, 1)
	a := rangeAdapter(t, s, 8<<20)
	end := drive(t, s, a, gen, s.LoadDone(), 1500)
	st := a.Stats()
	if st.Evals == 0 || st.Promotions == 0 || st.RangeMoves == 0 {
		t.Fatalf("range controller idle: %s", st)
	}
	// Residency stays within the budget and never flips whole tables.
	var resident int64
	for i := 0; i < inst.Config.NumUserTables; i++ {
		if s.TableStats(nil)[i].Target != placement.SM {
			t.Fatalf("range mode flipped table %d to whole-table FM", i)
		}
		resident += s.FMResidentBytes(i)
	}
	if resident == 0 || resident > 400<<10 {
		t.Fatalf("FM-resident range bytes %d outside (0, budget]", resident)
	}
	// The spotlight tables' head ranges (spatial workload: range 0 is the
	// Zipf head) must be FM-resident, and lookups must be served there.
	for _, h := range gen.HotUserTables() {
		found := false
		for _, rs := range s.RangeStats(nil) {
			if rs.Table == h && rs.Range == 0 && rs.FMResident {
				found = true
			}
		}
		if !found {
			t.Fatalf("spotlight table %d head range not FM-resident after convergence: %s", h, st)
		}
	}
	if s.Stats().RangeFMReads == 0 {
		t.Fatal("no lookups served from FM-resident ranges")
	}

	// Rotation: the controller re-places ranges, demoting stale ones.
	gen.ForceRotation()
	drive(t, s, a, gen, end, 1500)
	st2 := a.Stats()
	if st2.Demotions == 0 {
		t.Fatalf("rotation should demote stale ranges: %s", st2)
	}
	for _, h := range gen.HotUserTables() {
		if s.FMResidentBytes(h) == 0 {
			t.Fatalf("post-rotation spotlight table %d has no FM-resident ranges: %s", h, st2)
		}
	}
}

func TestRangeAdapterParallelismInvariant(t *testing.T) {
	run := func(par int) (Stats, core.Stats, []core.RangeStat) {
		s, gen, _ := rangeFixture(t, par)
		a := rangeAdapter(t, s, 4<<20)
		end := drive(t, s, a, gen, s.LoadDone(), 800)
		gen.ForceRotation()
		drive(t, s, a, gen, end, 800)
		return a.Stats(), s.Stats(), s.RangeStats(nil)
	}
	s1, c1, r1 := run(1)
	s4, c4, r4 := run(4)
	if s1 != s4 {
		t.Fatalf("adapter stats diverged across parallelism:\n%+v\n%+v", s1, s4)
	}
	if c1 != c4 {
		t.Fatalf("store stats diverged across parallelism:\n%+v\n%+v", c1, c4)
	}
	if len(r1) != len(r4) {
		t.Fatalf("range stats length diverged: %d vs %d", len(r1), len(r4))
	}
	for i := range r1 {
		if r1[i] != r4[i] {
			t.Fatalf("range stat %d diverged:\n%+v\n%+v", i, r1[i], r4[i])
		}
	}
}

// fakeMig drives the advance-loop regression tests: it can stall (issue
// zero bytes forever) or fail at a given step, and records Abort/Commit.
type fakeMig struct {
	stall     bool
	failAt    int
	failBytes int // bytes the failing Step issued before its error
	finishAt  int
	steps     int
	aborted   bool
	committed bool
}

func (f *fakeMig) Step(now simclock.Time) (int, simclock.Time, error) {
	if f.aborted {
		return 0, now, errors.New("stepped after abort")
	}
	f.steps++
	if f.failAt > 0 && f.steps >= f.failAt {
		return f.failBytes, now, errors.New("injected device error")
	}
	if f.stall {
		return 0, now, nil
	}
	return 1 << 10, now, nil
}

func (f *fakeMig) Finished() bool      { return !f.stall && f.finishAt > 0 && f.steps >= f.finishAt }
func (f *fakeMig) Done() simclock.Time { return 0 }
func (f *fakeMig) Commit() error       { f.committed = true; return nil }
func (f *fakeMig) Abort()              { f.aborted = true }
func (f *fakeMig) BytesMoved() int64   { return int64(f.steps) << 10 }

// fakeMigRecorder issues 1 KiB chunks and records every Step's issue
// time — the seam the window-gating tests observe.
type fakeMigRecorder struct {
	finishAt  int
	steps     int
	committed bool
	aborted   bool
	issues    *[]simclock.Time
}

func (f *fakeMigRecorder) Step(now simclock.Time) (int, simclock.Time, error) {
	f.steps++
	*f.issues = append(*f.issues, now)
	return 1 << 10, now, nil
}

func (f *fakeMigRecorder) Finished() bool      { return f.steps >= f.finishAt }
func (f *fakeMigRecorder) Done() simclock.Time { return 0 }
func (f *fakeMigRecorder) Commit() error       { f.committed = true; return nil }
func (f *fakeMigRecorder) Abort()              { f.aborted = true }
func (f *fakeMigRecorder) BytesMoved() int64   { return int64(f.steps) << 10 }

func TestAdvanceGuardsZeroByteStall(t *testing.T) {
	// Regression: a migration issuing 0 bytes without finishing used to
	// spin the unpaced pacing loop forever (nextIssue never advances,
	// Finished never true). It must now be aborted and dropped.
	x := newActuator(nil, 0, 0, &Stats{}) // unpaced
	f := &fakeMig{stall: true}
	x.active = &activeMig{job: move{Table: 1, Promote: true, Whole: true}, m: f}
	done := make(chan struct{})
	go func() { x.advance(100); close(done) }()
	select {
	case <-done:
	case <-time.After(10 * time.Second): //sdm:allow wallclock test watchdog against a regressed spin, not simulated time
		t.Fatal("advance spun on a zero-byte stall")
	}
	if !f.aborted || f.committed {
		t.Fatalf("stalled migration not rolled back: aborted=%t committed=%t", f.aborted, f.committed)
	}
	if x.active != nil || x.stats.Aborts != 1 {
		t.Fatalf("stall not accounted: active=%v aborts=%d", x.active, x.stats.Aborts)
	}
}

func TestAdvanceAbortsOnStepError(t *testing.T) {
	// Regression: a mid-flight Step error used to just drop the active
	// migration, leaving the half-issued migration committable; it must
	// be aborted.
	x := newActuator(nil, 0, 0, &Stats{})
	win := Window{Open: 0, Close: 1000}
	x.setWindows(func(simclock.Time) Window { return win })
	f := &fakeMig{failAt: 3, failBytes: 512, finishAt: 10}
	x.active = &activeMig{job: move{Table: 2, Promote: false, Whole: true}, m: f}
	x.advance(100)
	if !f.aborted || f.committed {
		t.Fatalf("failed migration not rolled back: aborted=%t committed=%t", f.aborted, f.committed)
	}
	if x.stats.Aborts != 1 || x.stats.Demotions != 0 {
		t.Fatalf("error not accounted: %s", x.stats)
	}
	// The failing chunk wrote 512 bytes on its first devices before the
	// error: they wore the media, so they spend the window's demote budget.
	if got := x.spentInWindow(win); got != 2<<10+512 {
		t.Fatalf("window counts %d demoted bytes, want the two chunks and the failed one's 512", got)
	}
	if err := f.Commit(); err != nil {
		// fakeMig allows it, but the real Migration must not: covered by
		// core's TestMigrationAbort. Here we only assert the actuator path.
		t.Fatal(err)
	}

	// A healthy migration still commits.
	x2 := newActuator(nil, 0, 0, &Stats{})
	ok := &fakeMig{finishAt: 2}
	x2.active = &activeMig{job: move{Table: 3, Promote: true, Lo: 0, Hi: 8}, m: ok}
	x2.advance(100)
	if !ok.committed || x2.stats.Promotions != 1 || x2.stats.RangeMoves != 1 {
		t.Fatalf("healthy migration not committed: %s", x2.stats)
	}
}

func TestActuatorWindowsGateIssue(t *testing.T) {
	// With a window schedule installed, chunks issue only inside granted
	// windows: a migration begun between windows waits for the next
	// grant, and chunks never issue past a window's close.
	const slot = simclock.Time(100)
	var issues []simclock.Time
	x := newActuator(nil, 0, 0, &Stats{})
	// This replica owns [200, 300) and every 300 thereafter (cycle 300).
	x.setWindows(func(t simclock.Time) Window {
		cycle := 3 * slot
		k := (t - 2*slot) / cycle
		if t < 2*slot {
			k = 0
		} else if (t-2*slot)%cycle >= slot {
			k++
		}
		open := 2*slot + k*cycle
		return Window{Open: open, Close: open + slot, BandwidthBytesPerSec: 1 << 30}
	})
	f := &fakeMigRecorder{finishAt: 4, issues: &issues}
	x.active = &activeMig{job: move{Table: 1, Promote: true, Whole: true}, m: f, nextIssue: 0}

	x.advance(100) // before the first window: nothing may issue
	if len(issues) != 0 {
		t.Fatalf("chunks issued outside any window: %v", issues)
	}
	x.advance(250) // inside [200, 300)
	for _, at := range issues {
		if at < 200 || at >= 300 {
			t.Fatalf("chunk issued at %d outside window [200, 300): %v", at, issues)
		}
	}
	x.advance(10_000) // enough windows to finish and commit
	if !f.committed {
		t.Fatalf("windowed migration never committed (issues=%v)", issues)
	}
	for _, at := range issues {
		rel := (at - 2*slot) % (3 * slot)
		if at < 2*slot || rel < 0 || rel >= slot {
			t.Fatalf("chunk issued at %d outside the replica's windows", at)
		}
	}
}

func TestActuatorWindowDemoteBudget(t *testing.T) {
	// A window's SM write budget caps demote chunks (promotes are reads
	// and stay exempt): once the budget is spent, the next demote chunk
	// waits for the following window.
	const slot = simclock.Time(1000)
	window := func(t simclock.Time) Window {
		open := t / slot * slot
		return Window{Open: open, Close: open + slot, DemoteBudgetBytes: 2 << 10}
	}
	var issues []simclock.Time
	x := newActuator(nil, 0, 0, &Stats{})
	x.setWindows(window)
	f := &fakeMigRecorder{finishAt: 6, issues: &issues} // 6 KiB in 1 KiB chunks
	x.active = &activeMig{job: move{Table: 1, Promote: false, Whole: true}, m: f}
	x.advance(5 * slot)
	if !f.committed {
		t.Fatalf("budgeted demotion never committed (issues=%v)", issues)
	}
	// 2 KiB per 1000-tick window: chunks 1-2 in window 0, 3-4 in window
	// 1, 5-6 in window 2.
	perWindow := map[simclock.Time]int{}
	for _, at := range issues {
		perWindow[at/slot]++
	}
	for w, n := range perWindow {
		if n > 2 {
			t.Fatalf("window %d issued %d demote chunks over its 2-chunk budget: %v", w, n, issues)
		}
	}
	if len(perWindow) < 3 {
		t.Fatalf("demotion did not spread across windows: %v", issues)
	}

	// The same migration promoted ignores the demote budget entirely.
	var pIssues []simclock.Time
	x2 := newActuator(nil, 0, 0, &Stats{})
	x2.setWindows(window)
	p := &fakeMigRecorder{finishAt: 6, issues: &pIssues}
	x2.active = &activeMig{job: move{Table: 1, Promote: true, Whole: true}, m: p}
	x2.advance(10)
	if !p.committed || len(pIssues) != 6 {
		t.Fatalf("promotion throttled by the demote budget: committed=%t issues=%v", p.committed, pIssues)
	}
}

func TestConfigValidate(t *testing.T) {
	bad := []Config{
		{Hysteresis: 0.5},
		{Hysteresis: -1},
		{Smoothing: 1.5},
		{Smoothing: -0.1},
		{Interval: -time.Second},
		{BandwidthBytesPerSec: -1},
		{ChunkBytes: -1},
		{DRAMBudget: -1},
		{Granularity: Granularity(7)},
		{PaybackSeconds: -1},
	}
	for _, cfg := range bad {
		if err := cfg.Validate(); err == nil {
			t.Fatalf("config %+v should be rejected", cfg)
		}
	}
	// Non-finite floats pass every x < 0 check; each is rejected by field
	// name instead of silently changing what the controller does.
	for _, c := range []struct {
		field string
		set   func(*Config, float64)
	}{
		{"BandwidthBytesPerSec", func(c *Config, v float64) { c.BandwidthBytesPerSec = v }},
		{"Smoothing", func(c *Config, v float64) { c.Smoothing = v }},
		{"Hysteresis", func(c *Config, v float64) { c.Hysteresis = v }},
		{"PaybackSeconds", func(c *Config, v float64) { c.PaybackSeconds = v }},
		{"WearDaysPerSecond", func(c *Config, v float64) { c.WearDaysPerSecond = v }},
	} {
		for _, v := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
			var cfg Config
			c.set(&cfg, v)
			if err := cfg.Validate(); err == nil || !strings.Contains(err.Error(), c.field) {
				t.Errorf("%s = %v: error %v, want one naming the field", c.field, v, err)
			}
		}
	}
	good := []Config{
		{},
		{Hysteresis: 1, Smoothing: 1, Granularity: Ranges, PaybackSeconds: 3},
		{Hysteresis: 2.5, Interval: time.Second},
	}
	for _, cfg := range good {
		if err := cfg.Validate(); err != nil {
			t.Fatalf("config %+v wrongly rejected: %v", cfg, err)
		}
	}

	// New surfaces validation errors instead of silently coercing (the
	// old defaulted() rewrote Hysteresis 0.5 to 1.3).
	s, _, _ := rangeFixture(t, 1)
	if _, err := New(s, Config{Hysteresis: 0.5, DRAMBudget: 1 << 20}); err == nil {
		t.Fatal("New should reject Hysteresis in (0, 1)")
	}
	if _, err := New(s, Config{Smoothing: 2, DRAMBudget: 1 << 20}); err == nil {
		t.Fatal("New should reject Smoothing > 1")
	}
}

func TestReconcileQueueDropsStaleJobs(t *testing.T) {
	// A promotion queued under an older desired set must not survive an
	// evaluation that no longer wants it — stale jobs used to begin (and
	// commit) anyway, stacking FM placement past the budget.
	x := newActuator(nil, 0, 0, &Stats{})
	x.enqueue([]move{
		{Table: 1, Promote: true, Whole: true},
		{Table: 2, Promote: false, Whole: true},
		{Table: 3, Promote: true, Whole: true},
		{Table: 4, Promote: true, Lo: 0, Hi: 8},
	})
	desired := map[int]bool{1: true, 2: true, 3: false, 4: false}
	x.reconcile(func(j move) bool { return desired[j.Table] == j.Promote })
	if x.pending() != 1 || x.queue[0].Table != 1 {
		t.Fatalf("stale jobs not dropped: %+v", x.queue)
	}
}
