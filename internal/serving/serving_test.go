package serving

import (
	"fmt"
	"math"
	"testing"
	"time"

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
	store, err := core.Open(in, tables, scfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	h, err := NewHost(in, store, tables, nil, nil, hcfg)
	if err != nil {
		t.Fatal(err)
	}
	return h, store
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
		h, _ := sdmHost(t, in, tables, Config{Spec: HWSS(), InterOp: interOp}, scfg)
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

// TestItemPoolsMatchRowByRow pins the item side's pooled values: after
// Admit, each item op's outputs equal the sum of its rows, each dequantized
// on its own from the flat table. The outputs read NaN before the call, so
// a pool that leaves one unwritten fails too.
func TestItemPoolsMatchRowByRow(t *testing.T) {
	in, tables := fixture(t)
	nUser := in.Config.NumUserTables
	h, _ := sdmHost(t, in, tables, Config{Spec: HWSS(), InterOp: true},
		core.Config{Seed: 13, Ring: uring.Config{SGL: true}, CacheBytes: 1 << 14})
	gen, err := workload.NewGenerator(in, workload.Config{Seed: 17, NumUsers: 200})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		q := gen.Next()
		items := q.Ops[nUser:]
		if len(items) == 0 {
			t.Fatal("fixture: a query without item ops")
		}
		for _, op := range items {
			for _, out := range h.outsFor(op) {
				for e := range out {
					out[e] = float32(math.NaN())
				}
			}
		}
		if _, err := h.Admit(h.Ready(), q); err != nil {
			t.Fatal(err)
		}
		for _, op := range items {
			dim := in.Tables[op.Table].Dim
			row := make([]float32, dim)
			for b, pool := range op.Pools {
				want := make([]float32, dim)
				for _, idx := range pool {
					if err := tables[op.Table].DequantizeRow(row, idx); err != nil {
						t.Fatal(err)
					}
					for e, v := range row {
						want[e] += v
					}
				}
				got := h.outsFor(op)[b]
				for e := range want {
					if d := math.Abs(float64(got[e] - want[e])); !(d <= 1e-4*(1+math.Abs(float64(want[e])))) {
						t.Fatalf("query %d table %d pool %d lane %d: %g, row by row %g", i, op.Table, b, e, got[e], want[e])
					}
				}
			}
		}
	}
}

func TestFlatHostReportsCPUUtil(t *testing.T) {
	// DRAM-baseline hosts pool from flat tables; that CPU work books on the
	// cores and must show up in the booked CPU that utilization is computed
	// from (utilization used to read 0% because only store CPU was counted).
	in, tables := fixture(t)
	gen, err := workload.NewGenerator(in, workload.Config{Seed: 10, NumUsers: 100})
	if err != nil {
		t.Fatal(err)
	}
	h, err := NewHost(in, nil, tables, nil, nil, Config{Spec: HWL(), InterOp: true})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := h.Admit(h.Ready(), gen.Next()); err != nil {
		t.Fatal(err)
	}
	if got := h.Snapshot().CPUBooked; got <= 0 {
		t.Fatalf("flat host booked %v CPU, want > 0", got)
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
		Config{Spec: HWSS(), InterOp: true},
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
		Config{Spec: HWSS(), InterOp: true},
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
	flat, err := NewHost(in, nil, tables, nil, nil, Config{Spec: HWL(), InterOp: true})
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
	if _, err := NewHost(in, nil, nil, nil, nil, Config{Spec: HWSS()}); err == nil {
		t.Fatal("host without any backing should fail")
	}
	if _, err := NewHost(in, nil, nil, nil, nil, Config{Spec: HostSpec{Name: "x"}, RemoteUserPath: true}); err == nil {
		t.Fatal("zero cores should fail")
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
