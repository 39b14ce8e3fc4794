package cluster

import (
	"testing"
	"time"

	"sdm/internal/adapt"
	"sdm/internal/core"
	"sdm/internal/embedding"
	"sdm/internal/model"
	"sdm/internal/placement"
	"sdm/internal/serving"
	"sdm/internal/simclock"
	"sdm/internal/uring"
	"sdm/internal/workload"
)

func TestCoordinatorScheduleShape(t *testing.T) {
	coord, err := NewCoordinator(3, CoordConfig{Slot: 10 * time.Millisecond}, 0)
	if err != nil {
		t.Fatal(err)
	}
	slot := simclock.Time(10 * time.Millisecond)
	cycle := 3 * slot
	if coord.Cycle() != 30*time.Millisecond {
		t.Fatalf("cycle %v, want 30ms", coord.Cycle())
	}
	for host := 0; host < 3; host++ {
		for _, at := range []simclock.Time{0, slot / 2, slot, 2*slot + 1, cycle, 5*cycle + slot/3} {
			w := coord.WindowFor(host, at)
			if w.Close-w.Open != slot {
				t.Fatalf("host %d window %+v not slot-wide", host, w)
			}
			if w.Close <= at && w.Open <= at {
				t.Fatalf("host %d window %+v already closed at %d", host, w, at)
			}
			// The window belongs to this host's phase of the cycle.
			if (w.Open-simclock.Time(host)*slot)%cycle != 0 {
				t.Fatalf("host %d window %+v off its phase", host, w)
			}
			// It is the earliest such window not closed at `at`.
			if w.Open > at && w.Open-cycle+slot > at {
				t.Fatalf("host %d skipped a usable window before %+v at %d", host, w, at)
			}
		}
	}
	// Windows of distinct hosts never overlap: at any instant at most one
	// replica's window contains it.
	for at := simclock.Time(0); at < 4*cycle; at += slot / 4 {
		owners := 0
		for host := 0; host < 3; host++ {
			w := coord.WindowFor(host, at)
			if w.Open <= at && at < w.Close {
				owners++
			}
		}
		if owners != 1 {
			t.Fatalf("%d replicas own the window at t=%d, want exactly 1", owners, at)
		}
	}
}

func TestCoordinatorWearSplit(t *testing.T) {
	coord, err := NewCoordinator(4, CoordConfig{Slot: time.Millisecond}, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	w := coord.WindowFor(2, 0)
	if w.DemoteBudgetBytes != (1<<20)/4 {
		t.Fatalf("per-window wear budget %d, want cycle budget split 4 ways", w.DemoteBudgetBytes)
	}
	if _, err := NewCoordinator(0, CoordConfig{}, 0); err == nil {
		t.Fatal("empty fleet should be rejected")
	}
	if _, err := NewCoordinator(2, CoordConfig{Slot: -time.Second}, 0); err == nil {
		t.Fatal("negative slot should be rejected")
	}
}

// coordinatedFleet mirrors rangeAdaptiveFleet under fleet coordination:
// staggered migration windows, one shared bandwidth cap, endurance-derived
// shared wear budget.
func coordinatedFleet(t *testing.T, in *model.Instance, tables []*embedding.Table, n, workers int) (*Fleet, []*adapt.Adapter, *Coordinator) {
	t.Helper()
	scfg := core.Config{
		Seed: 7, Ring: uring.Config{SGL: true}, CacheBytes: 1 << 16,
		ReserveSM: true, MigrationRangeBytes: 16 << 10,
		Placement: placement.Config{
			Policy: placement.SMOnlyWithCache, UserTablesOnly: true,
		},
	}
	hosts, err := HostSet(in, tables, n, &scfg, serving.Config{Spec: serving.HWSS(), InterOp: true, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	adapters, coord, err := AttachCoordinated(hosts, adapt.Config{
		Interval: 100 * time.Millisecond, BandwidthBytesPerSec: 8 << 20,
		ChunkBytes: 16 << 10, DRAMBudget: 5 * (96 << 10) / 2,
		Granularity: adapt.Ranges, WearDaysPerSecond: 0.5,
	}, CoordConfig{Slot: 30 * time.Millisecond, BandwidthBytesPerSec: 8 << 20})
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
	return f, adapters, coord
}

func TestCoordinatedFleetDeterministicAcrossWorkers(t *testing.T) {
	// The coordinated determinism contract: the window schedule is a pure
	// function of (replica, virtual time), per-window wear budgets are
	// enforced on each host's own admission stream, and no mutable state
	// is shared across hosts — so a staggered drift drill over real
	// goroutines stays bit-identical at any HostWorkers count.
	in, tables := adaptiveFixture(t)
	var keys []string
	for _, workers := range []int{1, 2, 4} {
		f, adapters, _ := coordinatedFleet(t, in, tables, 3, workers)
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
				t.Fatalf("coordinated fleet never moved a range: %s", as)
			}
			if res.SMWriteBytes == 0 {
				t.Fatalf("fleet wear accounting empty: %+v", res)
			}
			if res.DWPDUtil <= 0 {
				t.Fatalf("fleet DWPD utilization not projected: %+v", res)
			}
		}
		keys = append(keys, resultKey(t, res)+AdapterStats(adapters).String())
	}
	for i := 1; i < len(keys); i++ {
		if keys[i] != keys[0] {
			t.Fatalf("coordinated fleet diverged across worker counts:\n%s\nvs\n%s", keys[0], keys[i])
		}
	}
}

func TestCoordinatedFleetStaggersMigrationIO(t *testing.T) {
	// The schedule actually staggers execution: replicas migrate, and the
	// endurance-derived shared wear budget is in force (windows carry a
	// positive demote allowance derived from the hosts' device DWPD).
	in, tables := adaptiveFixture(t)
	f, adapters, coord := coordinatedFleet(t, in, tables, 3, 0)
	w := coord.WindowFor(0, 0)
	if w.DemoteBudgetBytes <= 0 {
		t.Fatalf("attach did not derive a shared wear budget: %+v", w)
	}
	if _, err := f.Run(300, 600); err != nil {
		t.Fatal(err)
	}
	if err := f.ScheduleDrift(0.5); err != nil {
		t.Fatal(err)
	}
	res, err := f.Run(300, 1200)
	if err != nil {
		t.Fatal(err)
	}
	as := AdapterStats(adapters)
	if as.Promotions == 0 || as.MigratedBytes == 0 {
		t.Fatalf("coordinated fleet never migrated: %s", as)
	}
	// Post-drift the fleet still recovers its FM-served rate.
	final := res.Windows[len(res.Windows)-1]
	if final.FMRate <= 0 {
		t.Fatalf("coordinated fleet did not recover FM service: %+v", res.Windows)
	}
}
