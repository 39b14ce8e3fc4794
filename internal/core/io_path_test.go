package core

import (
	"reflect"
	"testing"

	"sdm/internal/blockdev"
)

// everySMIO drives s (a rangeConfig(2, 8<<10) store over adaptiveFixture)
// through every kind of SM IO a store issues after Open: query reads, a
// whole-table and a ranged promotion and demotion, a demotion's write-through
// of an updated FM-resident row, online updates drained by FlushUpdates and
// an offline UpdateRow. No IO fails.
func everySMIO(t *testing.T, s *Store) {
	t.Helper()
	const whole, ranged, chunk = 1, 3, 3 << 10
	now := s.LoadDone()
	query := func() {
		for _, q := range trace(t, s.inst, 12, 9) {
			if _, err := s.PoolQuery(now, q, s.AllocOutputs(q)); err != nil {
				t.Fatal(err)
			}
		}
	}
	query()

	up, err := s.BeginPromote(whole, 8<<10)
	if err != nil {
		t.Fatal(err)
	}
	now = driveRange(t, up, now)
	down, err := s.BeginDemote(whole, 8<<10)
	if err != nil {
		t.Fatal(err)
	}
	now = driveRange(t, down, now)

	st := s.tables[ranged]
	rr := st.rangeRows
	up, err = s.BeginPromoteRange(ranged, 0, 2*rr, chunk)
	if err != nil {
		t.Fatal(err)
	}
	now = driveRange(t, up, now)
	down, err = s.BeginDemoteRange(ranged, 0, 2*rr, chunk)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := down.Step(now); err != nil {
		t.Fatal(err)
	}
	// Row 0 went to SM with the first chunk: its update writes through.
	if _, err := s.UpdateRow(now, ranged, 0, smBytes(t, s, st, 7), UpdateOnline); err != nil {
		t.Fatal(err)
	}
	now = driveRange(t, down, now)

	for _, row := range []int64{2, 5, 8} {
		if _, err := s.UpdateRow(now, 0, row, smBytes(t, s, s.tables[0], row+1), UpdateOnline); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := s.FlushUpdates(now); err != nil {
		t.Fatal(err)
	}
	if _, err := s.UpdateRow(now, 2, 4, smBytes(t, s, s.tables[2], 3), UpdateOffline); err != nil {
		t.Fatal(err)
	}
	query()
}

// TestDeviceStatsSumsEveryField: Store.DeviceStats is the sum over the
// store's devices of every counter of blockdev.Stats — a field added to it
// later included.
func TestDeviceStatsSumsEveryField(t *testing.T) {
	s, _, _ := adaptiveFixture(t, rangeConfig(2, 8<<10))
	everySMIO(t, s)
	var want blockdev.Stats
	w := reflect.ValueOf(&want).Elem()
	for _, d := range s.devices {
		v := reflect.ValueOf(d.Stats())
		for i := range v.NumField() {
			if f := w.Field(i); f.Kind() == reflect.Uint64 {
				f.SetUint(f.Uint() + v.Field(i).Uint())
			}
		}
	}
	if want.BusWriteBytes == 0 {
		t.Fatal("fixture: no device write")
	}
	if got := s.DeviceStats(); got != want {
		t.Fatalf("DeviceStats %+v, devices sum to %+v", got, want)
	}
}

// TestRingBooksEverySMIO is the rings' conservation invariant: after Open,
// every IO a device books came through its ring, so across every kind of SM
// IO the rings' settled submissions grow by exactly the devices' IOs.
func TestRingBooksEverySMIO(t *testing.T) {
	s, _, _ := adaptiveFixture(t, rangeConfig(2, 8<<10))
	count := func() (ring, dev uint64) {
		rs, ds := s.RingStats(), s.DeviceStats()
		return rs.Completed + rs.Errors, ds.Reads + ds.Writes
	}
	r0, d0 := count()
	w0 := s.DeviceStats().Writes
	everySMIO(t, s)
	r1, d1 := count()
	if s.DeviceStats().Writes == w0 {
		t.Fatal("fixture: no device write after Open")
	}
	if r1-r0 != d1-d0 {
		t.Fatalf("rings settled %d IOs, devices booked %d", r1-r0, d1-d0)
	}
}

// TestWriteBackWaitsBehindFullRing: a §A.3 write-back is an SM IO like any
// other, so with its device's ring at the outstanding cap it cannot start
// before the earliest in-flight IO completes, and the ring counts it.
func TestWriteBackWaitsBehindFullRing(t *testing.T) {
	const table, row = 0, 1 // row 1 lives on device 1
	s, _, _ := adaptiveFixture(t, rangeConfig(2, 8<<10))
	st := s.tables[table]
	if dev, _ := s.smRow(st, row); dev != 1 || st.cache == nil {
		t.Fatalf("fixture: row %d on device %d, cache %v", row, dev, st.cache != nil)
	}
	now := s.LoadDone()
	if _, err := s.UpdateRow(now, table, row, smBytes(t, s, st, 7), UpdateOnline); err != nil {
		t.Fatal(err)
	}

	// One 4 MiB read fills a ring capped at one IO. Its link transfer keeps
	// it in flight well past the instant its media reads free a channel,
	// when a write that bypassed the ring could complete.
	s.devices[1].MaxOutstanding = 1
	inflight, err := s.rings[1].SubmitTimedRead(now, 4<<20, 0)
	if err != nil {
		t.Fatal(err)
	}
	before := s.rings[1].Stats()
	done, err := s.FlushUpdates(now)
	if err != nil {
		t.Fatal(err)
	}
	after := s.rings[1].Stats()
	if done < inflight {
		t.Fatalf("write-back done at %v, before the in-flight read completes at %v", done, inflight)
	}
	if after.Submitted-before.Submitted != 1 || after.Completed-before.Completed != 1 {
		t.Fatalf("ring counted the write-back as %d submitted, %d completed",
			after.Submitted-before.Submitted, after.Completed-before.Completed)
	}
}
