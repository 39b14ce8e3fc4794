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

// fmRangeFixture builds a ReserveSM, range-provisioned store whose
// placement starts every user table on SM, over a spatial stationary
// workload — the direct harness for the range-telemetry paths that were
// previously only exercised through the rowrange drill.
func fmRangeFixture(t *testing.T) (*core.Store, *workload.Generator) {
	t.Helper()
	mc := model.M1()
	mc.NumUserTables = 4
	mc.NumItemTables = 1
	mc.ItemBatch = 2
	mc.TotalBytes = 1 << 20
	inst, err := model.Build(mc, 1, 23)
	if err != nil {
		t.Fatal(err)
	}
	const perTable = 64 << 10
	for i := 0; i < mc.NumUserTables; i++ {
		inst.Tables[i].Rows = perTable / int64(inst.Tables[i].RowBytes())
	}
	tables, err := inst.Materialize()
	if err != nil {
		t.Fatal(err)
	}
	s, err := core.Open(inst, tables, core.Config{
		Seed: 29, ReserveSM: true, Ring: uring.Config{SGL: true},
		CacheBytes: 1 << 15, MigrationRangeBytes: 16 << 10,
		Placement: placement.Config{
			Policy: placement.SMOnlyWithCache, UserTablesOnly: true,
		},
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	gen, err := workload.NewGenerator(inst, workload.Config{
		Seed: 31, NumUsers: 300, UserAlpha: 0.9, Spatial: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	return s, gen
}

// pump replays n queries 2 ms apart starting at start and returns the
// time after the last one.
func pump(t *testing.T, s *core.Store, gen *workload.Generator, start simclock.Time, n int) simclock.Time {
	t.Helper()
	now := start
	for i := 0; i < n; i++ {
		now = start + simclock.Time(i)*simclock.Time(2*time.Millisecond)
		q := gen.Next()
		if _, err := s.PoolQuery(now, q, s.AllocOutputs(q)); err != nil {
			t.Fatal(err)
		}
	}
	return now + simclock.Time(2*time.Millisecond)
}

// migrate drives a whole migration to completion on the virtual timeline
// and returns the time after its commit.
func migrate(t *testing.T, m *core.Migration, now simclock.Time) simclock.Time {
	t.Helper()
	for !m.Finished() {
		if _, _, err := m.Step(now); err != nil {
			t.Fatal(err)
		}
	}
	if m.Done() > now {
		now = m.Done()
	}
	if err := m.Commit(); err != nil {
		t.Fatal(err)
	}
	return now + 1
}

func TestRangeTelemetryFreezesWhileWholeFM(t *testing.T) {
	// While a table is whole-FM-resident the store does not attribute
	// lookups to its ranges, so Sample must freeze each range's last
	// SM-phase estimate instead of decaying it toward zero — that profile
	// is the best available ranking when the table is later demoted.
	s, gen := fmRangeFixture(t)
	tl := newTelemetry(0.5)
	now := s.LoadDone()
	tl.sample(now, s) // prime

	// SM phase: range counters accumulate real rates.
	now = pump(t, s, gen, now, 300)
	tl.sample(now, s)
	var smRates []float64
	var smWindows []int
	for _, rt := range tl.ranges {
		if rt.Table == 0 {
			smRates = append(smRates, rt.LookupRate)
			smWindows = append(smWindows, rt.Windows)
		}
	}
	if len(smRates) == 0 || smRates[0] <= 0 {
		t.Fatalf("SM-phase range telemetry empty for table 0: %v", smRates)
	}
	smDemand := tl.tables[0].DemandBytes

	// Promote table 0 whole (its ranges are all SM-resident, so the
	// whole-table path applies), then keep serving and sampling.
	m, err := s.BeginPromote(0, 16<<10)
	if err != nil {
		t.Fatal(err)
	}
	now = migrate(t, m, now)
	if s.TargetOf(0) != placement.FM {
		t.Fatal("promotion did not land")
	}
	for i := 0; i < 3; i++ {
		now = pump(t, s, gen, now, 200)
		tl.sample(now, s)
	}
	for i, rt := range rangesOf(tl, 0) {
		if rt.LookupRate != smRates[i] {
			t.Fatalf("range %d rate moved while whole-FM: %g -> %g (must freeze)", i, smRates[i], rt.LookupRate)
		}
		if rt.Windows != smWindows[i] {
			t.Fatalf("range %d window count advanced while whole-FM: %d -> %d", i, smWindows[i], rt.Windows)
		}
	}
	// Table-level telemetry keeps flowing meanwhile (the freeze is
	// range-scoped): three more windows folded, the decayed demand moved
	// off its SM-phase value and still ranks the table.
	tt := tl.tables[0]
	if tt.Windows != 4 || tt.DemandBytes <= 0 || tt.DemandBytes == smDemand {
		t.Fatalf("table telemetry stalled during FM phase: %+v (SM-phase demand %g)", tt, smDemand)
	}
	if want := tt.DemandBytes / float64(tt.StoredBytes); tt.density() != want {
		t.Fatalf("density %g, want DemandBytes/StoredBytes = %g", tt.density(), want)
	}

	// Demote back to SM: range attribution resumes and the frozen profile
	// starts updating again.
	dm, err := s.BeginDemote(0, 16<<10)
	if err != nil {
		t.Fatal(err)
	}
	now = migrate(t, dm, now)
	now = pump(t, s, gen, now, 300)
	tl.sample(now, s)
	resumed := false
	for i, rt := range rangesOf(tl, 0) {
		if rt.Windows > smWindows[i] {
			resumed = true
		}
	}
	if !resumed {
		t.Fatal("range telemetry did not resume after demotion")
	}
	if ts := s.TableStats(nil)[0]; ts.DemoteWriteBytes == 0 {
		t.Fatalf("demote writes not counted against the table: %+v", ts)
	}
	_ = now
}

// rangesOf collects table tab's range telemetry in range order.
func rangesOf(tl *telemetry, tab int) []rangeTelemetry {
	var out []rangeTelemetry
	for _, rt := range tl.ranges {
		if rt.Table == tab {
			out = append(out, rt)
		}
	}
	return out
}
