package core

import (
	"bytes"
	"fmt"
	"reflect"
	"runtime"
	"testing"
	"time"

	"sdm/internal/blockdev"
	"sdm/internal/placement"
	"sdm/internal/simclock"
	"sdm/internal/uring"
	"sdm/internal/workload"
)

// TestSteadyStateQueryAllocs pins the allocation budget of the warm query
// path. After the arena, caches, scratch and result buffers reach steady
// state, a query allocates nothing at any Parallelism setting — the whole
// chain (NextShared, OutputsFor, PoolQuery with deferred-IO replay) runs
// on recycled storage, on the calling goroutine.
func TestSteadyStateQueryAllocs(t *testing.T) {
	for _, p := range []int{1, 4} {
		t.Run(fmt.Sprintf("parallelism=%d", p), func(t *testing.T) {
			in, tables := fixture(t)
			cfg := Config{
				Seed: 7, SMTech: blockdev.NandFlash,
				Ring: uring.Config{SGL: true}, CacheBytes: 1 << 20,
				Parallelism: p,
			}
			s := openStore(t, in, tables, cfg)
			gen, err := workload.NewGenerator(in, workload.Config{Seed: 7, NumUsers: 500, UserAlpha: 0.8})
			if err != nil {
				t.Fatal(err)
			}
			var obuf OutputBuf
			now := s.LoadDone()
			step := func() {
				now += simclock.Time(time.Millisecond)
				q := gen.NextShared()
				outs := s.OutputsFor(q, &obuf)
				if _, err := s.PoolQuery(now, q, outs); err != nil {
					t.Fatal(err)
				}
			}
			// Warm to steady state: caches filled, every reusable buffer at
			// its high-water size.
			for i := 0; i < 3000; i++ {
				step()
			}
			if avg := testing.AllocsPerRun(500, step); avg > 0 {
				t.Fatalf("steady-state query allocates %.2f objects/run, want 0", avg)
			}
		})
	}
}

// TestOpenReplicaMatchesOpen verifies the construction-sharing fast path:
// a replica opened from a donor must match a full Open with the same
// config bit for bit — load completion time, stats, device state and every
// query observable — with only the construction cost differing.
func TestOpenReplicaMatchesOpen(t *testing.T) {
	in, tables := fixture(t)
	cfg := Config{
		Seed: 3, SMTech: blockdev.NandFlash,
		Ring: uring.Config{SGL: true}, CacheBytes: 1 << 20,
	}
	donor, err := Open(in, tables, cfg, nil)
	if err != nil {
		t.Fatal(err)
	}

	rcfg := cfg
	rcfg.Seed = 9
	replica, err := OpenReplica(donor, rcfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	fresh, err := Open(in, tables, rcfg, nil)
	if err != nil {
		t.Fatal(err)
	}

	if got, want := replica.LoadDone(), fresh.LoadDone(); got != want {
		t.Fatalf("replica LoadDone %v, fresh Open %v", got, want)
	}
	if got, want := replica.Stats(), fresh.Stats(); !reflect.DeepEqual(got, want) {
		t.Fatalf("post-load store stats diverge:\nreplica %+v\nfresh   %+v", got, want)
	}
	if got, want := replica.DeviceStats(), fresh.DeviceStats(); !reflect.DeepEqual(got, want) {
		t.Fatalf("post-load device stats diverge:\nreplica %+v\nfresh   %+v", got, want)
	}

	// Same trace through both stores: every per-query result, all final
	// stats and every pooled output must match exactly.
	qs := trace(t, in, 40, 123)
	run := func(s *Store) ([]QueryResult, Stats, blockdev.Stats, uring.Stats, float64) {
		results := make([]QueryResult, 0, len(qs))
		sum := 0.0
		now := s.LoadDone()
		for _, q := range qs {
			outs := s.AllocOutputs(q)
			res, err := s.PoolQuery(now, q, outs)
			if err != nil {
				t.Fatal(err)
			}
			now = res.UserIODone
			results = append(results, res)
			for _, op := range outs {
				for _, pool := range op {
					for _, v := range pool {
						sum += float64(v)
					}
				}
			}
		}
		return results, s.Stats(), s.DeviceStats(), s.RingStats(), sum
	}
	rRes, rStats, rDev, rRing, rSum := run(replica)
	fRes, fStats, fDev, fRing, fSum := run(fresh)
	if !reflect.DeepEqual(rRes, fRes) {
		t.Fatal("per-query results diverge between replica and fresh Open")
	}
	if !reflect.DeepEqual(rStats, fStats) {
		t.Fatalf("store stats diverge:\nreplica %+v\nfresh   %+v", rStats, fStats)
	}
	if !reflect.DeepEqual(rDev, fDev) {
		t.Fatalf("device stats diverge:\nreplica %+v\nfresh   %+v", rDev, fDev)
	}
	if !reflect.DeepEqual(rRing, fRing) {
		t.Fatalf("ring stats diverge:\nreplica %+v\nfresh   %+v", rRing, fRing)
	}
	if rSum != fSum {
		t.Fatalf("output checksums diverge: replica %g, fresh %g", rSum, fSum)
	}

	// The donor must be untouched by replica construction and replica
	// queries: its own run still matches a pristine store with its seed.
	pristine, err := Open(in, tables, cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	dRes, dStats, dDev, dRing, dSum := run(donor)
	pRes, pStats, pDev, pRing, pSum := run(pristine)
	if !reflect.DeepEqual(dRes, pRes) || !reflect.DeepEqual(dStats, pStats) ||
		!reflect.DeepEqual(dDev, pDev) || !reflect.DeepEqual(dRing, pRing) || dSum != pSum {
		t.Fatal("donor behavior changed after serving as a replica source")
	}
}

// TestReplicaCleanMigrationCopiesNoImage pins what writes to a replica's
// shared media images cost the host heap. Demoting a table that started
// FM-resident rewrites the load bytes its reserved stripe already holds, and
// promoting and demoting one of its ranges again moves clean rows: together
// they allocate less than a quarter of one device's capacity, so no image is
// copied. An update that changes one SM-resident row, flushed to the media,
// does copy the row's image — the same measure sees that copy — and reaches
// the replica's media alone.
func TestReplicaCleanMigrationCopiesNoImage(t *testing.T) {
	cfg := rangeConfig(2, 8<<10)
	_, inst, tables := adaptiveFixture(t, cfg)
	cfg.Placement = placement.Config{Policy: placement.FixedFMWithCache, UserTablesOnly: true, DRAMBudget: inst.UserBytes() / 3}
	donor, err := Open(inst, tables, cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	rcfg := cfg
	rcfg.Seed++
	s, err := OpenReplica(donor, rcfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	fmTable, smTable := -1, -1
	for i := range s.tables {
		switch {
		case !s.tables[i].swappable:
		case s.TargetOf(i) == placement.FM && fmTable < 0:
			fmTable = i
		case s.TargetOf(i) == placement.SM && smTable < 0:
			smTable = i
		}
	}
	if fmTable < 0 || smTable < 0 {
		t.Fatalf("fixture: FM-resident swappable table %d, SM-resident %d", fmTable, smTable)
	}
	allocated := func(f func()) int64 {
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		f()
		runtime.ReadMemStats(&m1)
		return int64(m1.TotalAlloc - m0.TotalAlloc)
	}

	st, rr := s.tables[fmTable], s.RangeRowsOf(fmTable)
	now := s.LoadDone()
	capacity := s.devices[0].Capacity()
	clean := allocated(func() {
		m, err := s.BeginDemote(fmTable, 0)
		if err != nil {
			t.Fatal(err)
		}
		now = driveRange(t, m, now)
		for _, up := range []bool{true, false} {
			begin := s.BeginDemoteRange
			if up {
				begin = s.BeginPromoteRange
			}
			if m, err = begin(fmTable, 0, rr, 0); err != nil {
				t.Fatal(err)
			}
			now = driveRange(t, m, now)
			if up && !bytes.Equal(st.fmRange[0], tables[fmTable].Bytes()[:len(st.fmRange[0])]) {
				t.Fatal("promoted range differs from the table's load bytes")
			}
		}
	})
	if clean >= capacity/4 {
		t.Fatalf("clean migrations on a replica allocated %d bytes, want under a quarter of the %d-byte device", clean, capacity)
	}

	// One changed row, written back by the flush.
	sm := s.tables[smTable]
	row := int64(3)
	value := append([]byte(nil), tables[smTable].Bytes()[:sm.rowBytes]...)
	dev, off := s.smLocation(sm, row)
	if bytes.Equal(value, media(t, s.devices[dev])[off:off+int64(sm.rowBytes)]) {
		t.Fatal("fixture: the update does not change the row")
	}
	changed := allocated(func() {
		if _, err := s.UpdateRow(now, smTable, row, value, UpdateOnline); err != nil {
			t.Fatal(err)
		}
		if _, err := s.FlushUpdates(now); err != nil {
			t.Fatal(err)
		}
	})
	if changed < capacity {
		t.Fatalf("a changing update allocated %d bytes, want a copy of the %d-byte image", changed, capacity)
	}
	if !bytes.Equal(media(t, s.devices[dev])[off:off+int64(sm.rowBytes)], value) {
		t.Fatal("the flushed update is not on the replica's media")
	}
	if bytes.Equal(media(t, donor.devices[dev])[off:off+int64(sm.rowBytes)], value) {
		t.Fatal("the replica's update reached the donor's media")
	}
}

// TestOpenReplicaRejectsConfigDrift verifies the only permitted config
// difference between donor and replica is the seed.
func TestOpenReplicaRejectsConfigDrift(t *testing.T) {
	in, tables := fixture(t)
	cfg := Config{Seed: 3, SMTech: blockdev.NandFlash, Ring: uring.Config{SGL: true}}
	donor, err := Open(in, tables, cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	bad := cfg
	bad.Seed = 4
	bad.CacheBytes = 1 << 24
	if _, err := OpenReplica(donor, bad, nil); err == nil {
		t.Fatal("OpenReplica accepted a config that differs beyond Seed")
	}
}
