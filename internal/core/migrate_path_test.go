package core

import (
	"bytes"
	"errors"
	"fmt"
	"runtime"
	"slices"
	"testing"
	"weak"

	"sdm/internal/blockdev"
	"sdm/internal/placement"
	"sdm/internal/quant"
	"sdm/internal/simclock"
	"sdm/internal/uring"
	"sdm/internal/workload"
)

// rangeConfig is a ReserveSM store config whose swappable tables split into
// rangeBytes-wide row ranges striped over devs devices.
func rangeConfig(devs int, rangeBytes int64) Config {
	return Config{
		Seed: 5, ReserveSM: true, NumDevices: devs, Ring: uring.Config{SGL: true},
		CacheBytes: 1 << 16, MigrationRangeBytes: rangeBytes,
		Placement: placement.Config{Policy: placement.SMOnlyWithCache, UserTablesOnly: true},
	}
}

// syncMigration is the reference the migration data path is held to: the
// chunk loop the way it was first written, one SubmitSync per device and
// chunk through a freshly gathered staging buffer. It drives a second,
// identically opened store's rings, so equal ring and device state on both
// stores means the zero-staging path books exactly what SubmitSync would.
type syncMigration struct {
	s       *Store
	st      *tableState
	promote bool
	// image holds rows [begin, end): a promotion gathers into it, a demotion
	// writes it out.
	image                       []byte
	begin, end, next, chunkRows int64
	done                        simclock.Time
}

func newSyncMigration(s *Store, table int, promote bool, lo, hi int64, chunkBytes int, image []byte) *syncMigration {
	st := s.tables[table]
	return &syncMigration{
		s: s, st: st, promote: promote, image: image,
		begin: lo, end: hi, next: lo,
		chunkRows: max(int64(chunkBytes)/int64(st.rowBytes), 1),
	}
}

func (r *syncMigration) row(g int64) []byte {
	rb := int64(r.st.rowBytes)
	return r.image[(g-r.begin)*rb : (g-r.begin+1)*rb]
}

func (r *syncMigration) step(now simclock.Time) (int, simclock.Time, error) {
	n, rb := int64(r.s.cfg.NumDevices), int64(r.st.rowBytes)
	r0, r1 := r.next, min(r.next+r.chunkRows, r.end)
	chunkDone, moved := now, 0
	for d := int64(0); d < n; d++ {
		lo, hi := ceilRows(r0-d, n), ceilRows(r1-d, n)
		if hi <= lo {
			continue
		}
		buf := make([]byte, (hi-lo)*rb)
		if !r.promote {
			for j := lo; j < hi; j++ {
				copy(buf[(j-lo)*rb:], r.row(j*n+d))
			}
		}
		done, err := r.s.rings[d].SubmitSync(now, buf, r.s.stripes[d][r.st.stripe].Off+lo*rb, !r.promote)
		if err != nil {
			return moved, chunkDone, err
		}
		if r.promote {
			for j := lo; j < hi; j++ {
				copy(r.row(j*n+d), buf[(j-lo)*rb:])
			}
		}
		chunkDone = max(chunkDone, done)
		moved += len(buf)
	}
	r.done = max(r.done, chunkDone)
	r.next = r1
	return moved, r.done, nil
}

// lockstep drives m and its reference chunk by chunk at now, requiring equal
// bytes and completion instants; between runs the number of chunks to issue
// (0 = to the end).
func lockstep(t *testing.T, m *Migration, ref *syncMigration, now simclock.Time, chunks int) {
	t.Helper()
	for i := 0; !m.Finished() && (chunks == 0 || i < chunks); i++ {
		n, done, err := m.Step(now)
		rn, rdone, rerr := ref.step(now)
		if err != nil || rerr != nil {
			t.Fatalf("chunk %d: %v / reference %v", i, err, rerr)
		}
		if n != rn || done != rdone {
			t.Fatalf("chunk %d: %d bytes done at %d, SubmitSync reference %d bytes at %d", i, n, done, rn, rdone)
		}
	}
}

// requireSameIO fails unless every ring and device of a and b carries the
// same counters.
func requireSameIO(t *testing.T, a, b *Store, stage string) {
	t.Helper()
	for d := range a.devices {
		if a.rings[d].Stats() != b.rings[d].Stats() {
			t.Fatalf("%s: ring %d diverged from SubmitSync semantics:\n%+v\n%+v", stage, d, a.rings[d].Stats(), b.rings[d].Stats())
		}
		if a.devices[d].Stats() != b.devices[d].Stats() {
			t.Fatalf("%s: device %d diverged from SubmitSync semantics:\n%+v\n%+v", stage, d, a.devices[d].Stats(), b.devices[d].Stats())
		}
	}
}

// media returns device d of s as a flat image: its stripes' rows read by
// (stripe, row) at their offsets, zeros elsewhere (the store writes rows
// only). A peek by offset would materialize a load image.
func media(t *testing.T, s *Store, d int) []byte {
	t.Helper()
	v := make([]byte, s.devices[d].Capacity())
	for k, sp := range s.stripes[d] {
		for j := int64(0); j < sp.Rows; j++ {
			b, err := s.devices[d].Row(k, j)
			if err != nil {
				t.Fatal(err)
			}
			copy(v[sp.Off+j*int64(sp.RowBytes):], b)
		}
	}
	return v
}

// smBytes returns a copy of row's bytes on its SM device of s, read by
// (stripe, row). Replicas share st's layout, so st may be another's.
func smBytes(t *testing.T, s *Store, st *tableState, row int64) []byte {
	t.Helper()
	d, j := s.smRow(st, row)
	b, err := s.devices[d].Row(st.stripe, j)
	if err != nil {
		t.Fatal(err)
	}
	return bytes.Clone(b)
}

// TestMigrationDataPathMatchesSubmitSync is the differential for the
// single-copy data path: a ranged promotion and the matching demotion of a
// window that ends in the table's short last range, chunked so that chunks
// split ranges, over 1–3 devices, with an offline update landing behind the
// promotion's cursor and dirty cache rows inside and outside the window.
// Bytes: after Commit every FM range row equals the oracle; after the
// demotion every device image equals its pre-promotion bytes with the three
// updates applied. Time: every chunk completes at the instant, and leaves
// the ring and device counters, of the SubmitSync reference — including a
// final Step against a closed device.
func TestMigrationDataPathMatchesSubmitSync(t *testing.T) {
	const table = 3
	for _, devs := range []int{1, 2, 3} {
		for _, chunk := range []int{1 << 10, 3 << 10, 5000} {
			t.Run(fmt.Sprintf("devs=%d/chunk=%d", devs, chunk), func(t *testing.T) {
				cfg := rangeConfig(devs, 8<<10)
				a, _, tables := adaptiveFixture(t, cfg)
				b, _, _ := adaptiveFixture(t, cfg)
				st := a.tables[table]
				rr, rb := st.rangeRows, int64(st.rowBytes)
				lo, hi := (int64(st.numRanges())-3)*rr, st.rows
				if lo < rr || hi%rr == 0 || int64(chunk) >= rr*rb {
					t.Fatalf("fixture: window [%d, %d) of %d-row ranges, %d-byte chunks", lo, hi, rr, chunk)
				}

				// The oracle: the table's original rows with the three updates.
				inRow, behind, outRow := lo+rr+3, lo+1, int64(1)
				oracle := append([]byte(nil), tables[table].Bytes()...)
				pre := make([][]byte, devs)
				for d := range pre {
					pre[d] = media(t, a, d)
				}
				update := func(row, donor int64) []byte {
					v := append([]byte(nil), oracle[donor*rb:(donor+1)*rb]...)
					copy(oracle[row*rb:], v)
					dev, j := a.smRow(st, row)
					copy(pre[dev][a.stripes[dev][st.stripe].Off+j*rb:], v)
					return v
				}

				now := a.LoadDone()
				// Dirty cache rows before the promotion: one inside the window
				// (folded into FM at Commit: no device IO until the demotion),
				// one outside (stays dirty on both stores until FlushUpdates).
				if _, err := a.UpdateRow(now, table, inRow, update(inRow, 7), UpdateOnline); err != nil {
					t.Fatal(err)
				}
				for _, s := range []*Store{a, b} {
					if _, err := s.UpdateRow(now, table, outRow, oracle[9*rb:10*rb], UpdateOnline); err != nil {
						t.Fatal(err)
					}
				}
				update(outRow, 9)

				m, err := a.BeginPromoteRange(table, lo, hi, chunk)
				if err != nil {
					t.Fatal(err)
				}
				ref := newSyncMigration(b, table, true, lo, hi, chunk, make([]byte, (hi-lo)*rb))
				lockstep(t, m, ref, now, 2)
				if m.next <= behind || m.Finished() {
					t.Fatalf("fixture: cursor at %d after two chunks", m.next)
				}
				// An offline update behind the cursor: a device write on both
				// stores, and on a a patch of the row already gathered.
				v := update(behind, 11)
				ta, err := a.UpdateRow(now, table, behind, v, UpdateOffline)
				if err != nil {
					t.Fatal(err)
				}
				if tb, err := b.UpdateRow(now, table, behind, v, UpdateOffline); err != nil || ta != tb {
					t.Fatalf("offline update: done at %d vs %d (%v)", ta, tb, err)
				}
				lockstep(t, m, ref, now, 0)
				if err := m.Commit(); err != nil {
					t.Fatal(err)
				}
				if m.BytesMoved() != (hi-lo)*rb || a.FMResidentBytes(table) != (hi-lo)*rb {
					t.Fatalf("moved %d, FM-resident %d, want %d", m.BytesMoved(), a.FMResidentBytes(table), (hi-lo)*rb)
				}
				for r := int64(0); r < st.rows; r++ {
					got := st.fmRow(r)
					if r < lo && got != nil {
						t.Fatalf("row %d outside the window became FM-resident", r)
					}
					if r >= lo && !bytes.Equal(got, oracle[r*rb:(r+1)*rb]) {
						t.Fatalf("FM row %d differs from the oracle", r)
					}
				}
				requireSameIO(t, a, b, "after the promotion")

				// The matching demotion writes the oracle's window back.
				now = m.Done() + 1
				dm, err := a.BeginDemoteRange(table, lo, hi, chunk)
				if err != nil {
					t.Fatal(err)
				}
				lockstep(t, dm, newSyncMigration(b, table, false, lo, hi, chunk, oracle[lo*rb:hi*rb]), now, 0)
				if err := dm.Commit(); err != nil {
					t.Fatal(err)
				}
				now = dm.Done() + 1
				fa, err := a.FlushUpdates(now)
				if err != nil {
					t.Fatal(err)
				}
				if fb, err := b.FlushUpdates(now); err != nil || fa != fb {
					t.Fatalf("write-back: done at %d vs %d (%v)", fa, fb, err)
				}
				for d := range pre {
					if !bytes.Equal(media(t, a, d), pre[d]) || !bytes.Equal(media(t, b, d), pre[d]) {
						t.Fatalf("device %d image differs from its pre-promotion bytes plus the updates", d)
					}
				}
				requireSameIO(t, a, b, "after the demotion")

				// One Step against a closed last device: the devices before it
				// are issued, the failed submission is counted, nothing more.
				a.devices[devs-1].Close()
				b.devices[devs-1].Close()
				m2, err := a.BeginPromoteRange(table, lo, hi, chunk)
				if err != nil {
					t.Fatal(err)
				}
				n, _, err := m2.Step(now)
				rn, _, rerr := newSyncMigration(b, table, true, lo, hi, chunk, make([]byte, (hi-lo)*rb)).step(now)
				if !errors.Is(err, blockdev.ErrClosed) || !errors.Is(rerr, blockdev.ErrClosed) || n != rn {
					t.Fatalf("closed device: %d bytes, %v; reference %d bytes, %v", n, err, rn, rerr)
				}
				m2.Abort()
				if rs := a.rings[devs-1].Stats(); rs.Errors != 1 {
					t.Fatalf("failed submission not counted: %+v", rs)
				}
				requireSameIO(t, a, b, "after the closed-device step")
			})
		}
	}
}

// TestStepFailureCountsIssuedBytes pins the conserving side of a failed
// Step: when device 1 fails after device 0's share of the chunk was issued,
// those bytes were moved (and, demoting, wore the media), so BytesMoved and
// the returned count include them; Abort then frees the table's in-flight
// slot, an aborted clean promotion leaves no FM bytes behind, and an aborted
// demotion leaves the window FM-resident and serving.
func TestStepFailureCountsIssuedBytes(t *testing.T) {
	const table, chunk = 3, 3 << 10
	s, _, _ := adaptiveFixture(t, rangeConfig(2, 8<<10))
	st := s.tables[table]
	rr := st.rangeRows
	now := s.LoadDone()
	up, err := s.BeginPromoteRange(table, 0, 2*rr, chunk)
	if err != nil {
		t.Fatal(err)
	}
	now = driveRange(t, up, now)

	deviceBytes := func() (read, written uint64) {
		ds := s.DeviceStats()
		return ds.RequestedBytes, ds.BusWriteBytes
	}
	_, w0 := deviceBytes()
	wear0 := st.runtime.DemoteWriteBytes
	dm, err := s.BeginDemoteRange(table, 0, 2*rr, chunk)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := dm.Step(now); err != nil {
		t.Fatal(err)
	}
	s.devices[1].Close()
	n, _, err := dm.Step(now)
	if !errors.Is(err, blockdev.ErrClosed) || n == 0 {
		t.Fatalf("step on a closed device 1: %d bytes, %v", n, err)
	}
	_, w1 := deviceBytes()
	if got := uint64(dm.BytesMoved()); got != w1-w0 || st.runtime.DemoteWriteBytes-wear0 != w1-w0 {
		t.Fatalf("demotion moved %d bytes (wear counter %d), devices wrote %d", got, st.runtime.DemoteWriteBytes-wear0, w1-w0)
	}
	dm.Abort()
	if st.migOut != nil {
		t.Fatal("aborted demotion still holds the table's in-flight slot")
	}
	// The window is still FM-resident, so the table keeps serving it without
	// touching the dead device.
	if s.FMResidentBytes(table) != 2*rr*int64(st.rowBytes) {
		t.Fatal("aborted demotion must keep the ranges FM-resident")
	}
	out := [][]float32{make([]float32, st.spec.Dim)}
	op := workload.TableOp{Table: table, Pools: [][]int64{{0, rr - 1, rr, 2*rr - 1}}}
	if _, err := s.PoolOps(now, []workload.TableOp{op}, [][][]float32{out}); err != nil {
		t.Fatalf("FM-resident rows must keep serving: %v", err)
	}

	// A promotion whose very first chunk fails on device 1.
	r0, _ := deviceBytes()
	pm, err := s.BeginPromoteRange(table, 2*rr, 4*rr, chunk)
	if err != nil {
		t.Fatal(err)
	}
	n, _, err = pm.Step(now)
	if !errors.Is(err, blockdev.ErrClosed) || n == 0 {
		t.Fatalf("step on a closed device 1: %d bytes, %v", n, err)
	}
	r1, _ := deviceBytes()
	if got := uint64(pm.BytesMoved()); got != r1-r0 || got != uint64(n) {
		t.Fatalf("promotion moved %d bytes (step returned %d), devices read %d", got, n, r1-r0)
	}
	for i, f := range pm.ranges {
		if f.owned {
			t.Fatalf("the clean rows device 0 moved gave range %d its own copy", i)
		}
	}
	pm.Abort()
	if st.migIn != nil || pm.ranges != nil {
		t.Fatalf("aborted promotion: in-flight slot %v, %d ranges still held", st.migIn, len(pm.ranges))
	}
	if s.FMResidentBytes(table) != 2*rr*int64(st.rowBytes) || st.fm[2].b != nil || st.fm[3].b != nil {
		t.Fatal("an aborted promotion made its window FM-resident")
	}
	if _, err := s.BeginPromoteRange(table, 2*rr, 4*rr, chunk); err != nil {
		t.Fatalf("the window must be free to migrate again: %v", err)
	}
}

// TestMigrationAllocBudget pins what a ranged promotion costs the host heap.
// Promoting every range of a table, the short last one included, installs
// the loaded rows as views and allocates under 1 KiB: no range buffer, no
// window image, no staging chunk, no copy at Commit. A write that changes
// one FM-resident row allocates exactly that range's copy, which stays the
// range's own for the next changing write, and its demotion drops the copy.
func TestMigrationAllocBudget(t *testing.T) {
	const table = 3
	s, _, tables := adaptiveFixture(t, rangeConfig(2, 0)) // default 256 KiB ranges
	st := s.tables[table]
	if st.numRanges() < 3 || st.rows%st.rangeRows == 0 {
		t.Fatalf("fixture: %d rows in %d-row ranges", st.rows, st.rangeRows)
	}
	now := s.LoadDone()
	// Chunks issue back to back, each after the last one's IO completed, so
	// the rings' in-flight heaps stay at their warm size.
	if got := allocated(func() {
		m, err := s.BeginPromoteRange(table, 0, st.rows, 64<<10)
		if err != nil {
			t.Fatal(err)
		}
		for !m.Finished() {
			if _, now, err = m.Step(now); err != nil {
				t.Fatal(err)
			}
		}
		if err := m.Commit(); err != nil {
			t.Fatal(err)
		}
	}); got >= 1<<10 {
		t.Fatalf("promoting %d ranges allocated %d bytes, want under 1 KiB", st.numRanges(), got)
	}
	for r := range st.fm {
		lo, _ := st.rangeBounds(r)
		if f := st.fm[r]; f.owned || &f.b[0] != &tables[table].Bytes()[lo*int64(st.rowBytes)] {
			t.Fatalf("range %d is not a view of the loaded table", r)
		}
	}

	rb := int64(st.rowBytes)
	w := st.rangeRows * rb
	value := bytes.Clone(tables[table].Bytes()[:rb])
	write := func(row int64) int64 {
		return allocated(func() {
			if _, err := s.UpdateRow(now, table, row, value, UpdateOnline); err != nil {
				t.Fatal(err)
			}
		})
	}
	if got := write(st.rangeRows + 1); got < w || got >= w+w/8 {
		t.Fatalf("the first changing write allocated %d bytes, want one copy of the %d-byte range", got, w)
	}
	if got := write(st.rangeRows + 2); got >= 1<<10 {
		t.Fatalf("a second changing write to the copied range allocated %d bytes", got)
	}
	for r := range st.fm {
		if st.fm[r].owned != (r == 1) {
			t.Fatalf("range %d owned=%t after writes to range 1", r, st.fm[r].owned)
		}
	}
	if !bytes.Equal(st.fmRow(st.rangeRows+2), value) {
		t.Fatal("the range's copy does not hold the write")
	}
	copied := weak.Make(&st.fm[1].b[0])
	d, err := s.BeginDemoteRange(table, st.rangeRows, 2*st.rangeRows, 64<<10)
	if err != nil {
		t.Fatal(err)
	}
	driveRange(t, d, now)
	runtime.GC()
	if st.fm[1].b != nil || copied.Value() != nil {
		t.Fatal("the demotion kept the range's copy")
	}
}

// TestFlushBehindPromotionCursor: an online update of a row that an
// in-flight promotion has already moved lives cache-first as a dirty entry,
// and FlushUpdates may drain it to SM before the promotion commits. That SM
// write must patch the promotion's copy of the row too, or Commit installs
// the old row — served from FM, and written back over the update by the
// next demotion. Both grains: one range, and the whole table.
func TestFlushBehindPromotionCursor(t *testing.T) {
	const table, row = 1, 3
	for _, whole := range []bool{false, true} {
		t.Run(map[bool]string{false: "range", true: "whole-table"}[whole], func(t *testing.T) {
			s, _, tables := adaptiveFixture(t, rangeConfig(2, 8<<10))
			st := s.tables[table]
			rb := int64(st.rowBytes)
			orig := tables[table].Bytes()
			value := bytes.Clone(orig[5*rb : 6*rb])
			if bytes.Equal(value, orig[row*rb:(row+1)*rb]) || st.cache == nil {
				t.Fatal("fixture: the update does not change the row, or the table has no cache")
			}
			now := s.LoadDone()
			promote := func() (*Migration, error) { return s.BeginPromoteRange(table, 0, st.rangeRows, 2*st.rowBytes) }
			if whole {
				promote = func() (*Migration, error) { return s.BeginPromote(table, 2*st.rowBytes) }
			}
			m, err := promote()
			if err != nil {
				t.Fatal(err)
			}
			for range 3 {
				if _, _, err := m.Step(now); err != nil {
					t.Fatal(err)
				}
			}
			if m.next <= row || m.Finished() {
				t.Fatalf("fixture: cursor at %d", m.next)
			}
			if _, err := s.UpdateRow(now, table, row, value, UpdateOnline); err != nil {
				t.Fatal(err)
			}
			if _, err := s.FlushUpdates(now); err != nil {
				t.Fatal(err)
			}
			now = driveRange(t, m, now)
			if !bytes.Equal(st.fmRow(row), value) {
				t.Fatal("the promotion installed the row as it was before the flushed update")
			}
			want := make([]float32, st.spec.Dim)
			if err := quant.DequantizeRow(want, value, st.storedSpec.QType); err != nil {
				t.Fatal(err)
			}
			out := [][]float32{make([]float32, st.spec.Dim)}
			op := workload.TableOp{Table: table, Pools: [][]int64{{row}}}
			if _, err := s.PoolOps(now, []workload.TableOp{op}, [][][]float32{out}); err != nil {
				t.Fatal(err)
			}
			if !slices.Equal(out[0], want) {
				t.Fatal("the promoted table does not serve the flushed update")
			}

			d, err := s.BeginDemoteRange(table, 0, st.rangeRows, 0)
			if whole {
				d, err = s.BeginDemote(table, 0)
			}
			if err != nil {
				t.Fatal(err)
			}
			driveRange(t, d, now)
			if got := smBytes(t, s, st, row); !bytes.Equal(got, value) {
				t.Fatal("the demotion wrote the old row back over the update")
			}
		})
	}
}
