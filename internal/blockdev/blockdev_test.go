package blockdev

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"runtime"
	"testing"
	"time"

	"sdm/internal/simclock"
	"sdm/internal/xrand"
)

func newNand(t *testing.T, capacity int64) *Device {
	t.Helper()
	return New(Spec(NandFlash), capacity, nil, 1)
}

// read is one block (or, with sgl, sub-block) read issued at now: the data
// half, PeekInto, then the timing half, AccountRead.
func read(d *Device, now simclock.Time, p []byte, off int64, sgl bool) (simclock.Time, error) {
	if err := d.PeekInto(p, off); err != nil {
		return now, err
	}
	return d.AccountRead(now, off, len(p), sgl)
}

// write is one write issued at now: PokeFrom, then AccountWrite.
func write(d *Device, now simclock.Time, p []byte, off int64) (simclock.Time, error) {
	if err := d.PokeFrom(p, off); err != nil {
		return now, err
	}
	return d.AccountWrite(now, off, len(p))
}

func TestCatalogComplete(t *testing.T) {
	cat := Catalog()
	if len(cat) != 5 {
		t.Fatalf("catalog has %d entries, want 5 (Table 1)", len(cat))
	}
	for _, s := range cat {
		if s.MaxIOPS <= 0 || s.MediaLatency <= 0 || s.AccessGranularity <= 0 {
			t.Errorf("%v: incomplete spec %+v", s.Tech, s)
		}
	}
}

func TestTable1Parameters(t *testing.T) {
	// Spot-check the headline Table 1 values.
	if s := Spec(NandFlash); s.MaxIOPS != 500e3 || s.AccessGranularity != 4096 {
		t.Errorf("Nand spec %+v", s)
	}
	if s := Spec(OptaneSSD); s.MaxIOPS != 4e6 || s.AccessGranularity != 512 {
		t.Errorf("Optane spec %+v", s)
	}
	if Spec(OptaneSSD).MediaLatency >= Spec(NandFlash).MediaLatency {
		t.Error("Optane must be faster than Nand (O(10) vs O(100) µs)")
	}
	if Spec(NandFlash).CostPerGBRelDRAM >= Spec(OptaneSSD).CostPerGBRelDRAM {
		t.Error("Nand must be cheaper than Optane (1/30 vs 1/5)")
	}
}

func TestTechnologyString(t *testing.T) {
	for _, tech := range []Technology{NandFlash, OptaneSSD, ZSSD, DIMM3DXP, CXL3DXP} {
		if tech.String() == "" {
			t.Errorf("empty name for %d", tech)
		}
	}
	if Technology(99).String() != "Technology(99)" {
		t.Error("unknown technology should render numerically")
	}
}

func TestWriteThenRead(t *testing.T) {
	dev := newNand(t, 1<<20)
	src := []byte("hello embedding row")
	if _, err := write(dev, 0, src, 4096); err != nil {
		t.Fatal(err)
	}
	dst := make([]byte, len(src))
	if _, err := read(dev, 0, dst, 4096, false); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(src, dst) {
		t.Fatalf("read %q, want %q", dst, src)
	}
}

// TestPokeFromPlusAccountWriteIsWrite: the two halves of a write leave
// same-seed devices in the same state in either order (a ring books the
// timing half first), and poking a device over a load image writes to a
// private copy, not to the loaded table.
func TestPokeFromPlusAccountWriteIsWrite(t *testing.T) {
	whole := newNand(t, 1<<20)
	split := newNand(t, 1<<20)
	src := bytes.Repeat([]byte{0xab}, 5000)
	for i := int64(0); i < 20; i++ {
		off := i * 9000
		want, err := write(whole, 0, src, off)
		if err != nil {
			t.Fatal(err)
		}
		got, err := split.AccountWrite(0, off, len(src))
		if err != nil {
			t.Fatal(err)
		}
		if err := split.PokeFrom(src, off); err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Fatalf("write %d: timing half first completes at %v, data half first at %v", i, got, want)
		}
	}
	if whole.Stats() != split.Stats() || !bytes.Equal(contents(t, whole, 0, 1<<20), contents(t, split, 0, 1<<20)) {
		t.Fatalf("the order of a write's halves changed its outcome:\n%+v\n%+v", split.Stats(), whole.Stats())
	}

	table := contents(t, whole, 0, 1<<20)
	loaded, err := NewLoaded(Spec(NandFlash), 1<<20, []Stripe{{Src: table, RowBytes: 1 << 10, Stride: 1, Rows: 1 << 10}}, 2)
	if err != nil {
		t.Fatal(err)
	}
	if err := loaded.PokeFrom([]byte{1, 2, 3}, 0); err != nil {
		t.Fatal(err)
	}
	if table[0] != 0xab || contents(t, loaded, 0, 1)[0] != 1 {
		t.Fatal("poke on a load image must copy first")
	}
	if err := split.PokeFrom(src, 1<<20-100); !errors.Is(err, ErrOutOfRange) {
		t.Fatalf("want ErrOutOfRange, got %v", err)
	}
}

func TestReadOutOfRange(t *testing.T) {
	dev := newNand(t, 4096)
	buf := make([]byte, 128)
	if _, err := read(dev, 0, buf, 4096-64, false); !errors.Is(err, ErrOutOfRange) {
		t.Fatalf("want ErrOutOfRange, got %v", err)
	}
	if _, err := read(dev, 0, buf, -1, false); !errors.Is(err, ErrOutOfRange) {
		t.Fatalf("negative offset: want ErrOutOfRange, got %v", err)
	}
}

func TestClosedDevice(t *testing.T) {
	dev := newNand(t, 4096)
	dev.Close()
	if _, err := read(dev, 0, make([]byte, 8), 0, false); !errors.Is(err, ErrClosed) {
		t.Fatalf("want ErrClosed, got %v", err)
	}
	if _, err := write(dev, 0, make([]byte, 8), 0); !errors.Is(err, ErrClosed) {
		t.Fatalf("want ErrClosed, got %v", err)
	}
}

func TestReadAmplification(t *testing.T) {
	dev := newNand(t, 1<<20)
	// 128 B from a 4 KiB-granularity device: 32× amplification.
	if _, err := dev.AccountRead(0, 0, 128, false); err != nil {
		t.Fatal(err)
	}
	s := dev.Stats()
	if s.MediaBytes != 4096 || s.RequestedBytes != 128 {
		t.Fatalf("media=%d requested=%d", s.MediaBytes, s.RequestedBytes)
	}
	if ra := s.ReadAmplification(); ra != 32 {
		t.Fatalf("read amplification %g, want 32", ra)
	}
	// Block read transfers the whole block over the bus.
	if s.BusBytes != 4096 {
		t.Fatalf("bus bytes %d, want 4096", s.BusBytes)
	}
}

func TestSGLBusSavings(t *testing.T) {
	dev := newNand(t, 1<<20)
	for i := 0; i < 100; i++ {
		if _, err := dev.AccountRead(0, int64(i)*4096, 128, true); err != nil {
			t.Fatal(err)
		}
	}
	s := dev.Stats()
	// §4.1.1: only requested bytes cross the bus.
	if s.BusBytes != 100*128 {
		t.Fatalf("SGL bus bytes %d, want %d", s.BusBytes, 100*128)
	}
	if sav := s.BusSavings(); sav < 0.9 {
		t.Fatalf("bus savings %g, want > 0.9 for 128B/4KB", sav)
	}
	// The media still reads whole blocks (no IOPS relief).
	if s.MediaBytes != 100*4096 {
		t.Fatalf("media bytes %d", s.MediaBytes)
	}
}

func TestSGLSpansTwoBlocks(t *testing.T) {
	dev := newNand(t, 1<<20)
	src := make([]byte, 256)
	for i := range src {
		src[i] = byte(i)
	}
	off := int64(4096 - 100) // straddles a block boundary
	if _, err := write(dev, 0, src, off); err != nil {
		t.Fatal(err)
	}
	before := dev.Stats().MediaBytes
	dst := make([]byte, 256)
	if _, err := read(dev, 0, dst, off, true); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(src, dst) {
		t.Fatal("straddling read corrupted data")
	}
	if s := dev.Stats(); s.MediaBytes-before != 8192 {
		t.Fatalf("straddling read should touch 2 blocks, media=%d", s.MediaBytes)
	}
}

func TestUnloadedLatencyNearMedia(t *testing.T) {
	dev := newNand(t, 1<<20)
	done, err := dev.AccountRead(0, 0, 128, true)
	if err != nil {
		t.Fatal(err)
	}
	lat := done.Duration()
	med := Spec(NandFlash).MediaLatency
	if lat < med/2 || lat > 10*med {
		t.Fatalf("unloaded latency %v, want near media latency %v", lat, med)
	}
}

func TestLoadedLatencyRises(t *testing.T) {
	// Submitting far beyond the device's concurrency at one instant must
	// queue: later completions much slower than the first.
	dev := newNand(t, 1<<24)
	var first, last simclock.Time
	const n = 2000
	for i := 0; i < n; i++ {
		done, err := dev.AccountRead(0, int64(i%1000)*4096, 128, true)
		if err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			first = done
		}
		if done > last {
			last = done
		}
	}
	if last < 5*first {
		t.Fatalf("no queueing visible: first=%v last=%v", first.Duration(), last.Duration())
	}
}

func TestThroughputCeiling(t *testing.T) {
	// Completion rate of a saturating burst must approximate MaxIOPS.
	spec := Spec(OptaneSSD)
	dev := New(spec, 1<<24, nil, 2)
	const n = 50000
	var last simclock.Time
	for i := 0; i < n; i++ {
		done, err := dev.AccountRead(0, int64(i%1000)*512, 128, true)
		if err != nil {
			t.Fatal(err)
		}
		if done > last {
			last = done
		}
	}
	iops := float64(n) / last.Seconds()
	if iops < spec.MaxIOPS*0.5 || iops > spec.MaxIOPS*1.5 {
		t.Fatalf("saturated IOPS %.0f, want near %.0f", iops, spec.MaxIOPS)
	}
}

func TestOptaneVsNandProfile(t *testing.T) {
	// Fig. 3 shape: Optane sustains higher IOPS at lower latency.
	run := func(tech Technology) (iops float64, meanLat time.Duration) {
		dev := New(Spec(tech), 1<<24, nil, 3)
		const n = 20000
		var last simclock.Time
		var sum time.Duration
		for i := 0; i < n; i++ {
			// Pace submissions at 80% of ceiling to stay in the stable
			// region.
			at := simclock.Time(float64(i) / (0.8 * Spec(tech).MaxIOPS) * float64(time.Second))
			done, err := dev.AccountRead(at, int64(i%1000)*4096, 128, true)
			if err != nil {
				t.Fatal(err)
			}
			sum += (done - at).Duration()
			if done > last {
				last = done
			}
		}
		return float64(n) / last.Seconds(), sum / n
	}
	nandIOPS, nandLat := run(NandFlash)
	optIOPS, optLat := run(OptaneSSD)
	if optIOPS <= nandIOPS {
		t.Fatalf("Optane IOPS %.0f should exceed Nand %.0f", optIOPS, nandIOPS)
	}
	if optLat >= nandLat {
		t.Fatalf("Optane latency %v should undercut Nand %v", optLat, nandLat)
	}
	// Order-of-magnitude check per Fig. 3: Nand O(100µs), Optane O(10µs).
	if nandLat < 50*time.Microsecond || optLat > 50*time.Microsecond {
		t.Fatalf("latency bands off: nand=%v optane=%v", nandLat, optLat)
	}
}

func TestNandTailEvents(t *testing.T) {
	dev := newNand(t, 1<<24)
	for i := 0; i < 20000; i++ {
		if _, err := dev.AccountRead(simclock.Time(i)*simclock.Time(10*time.Microsecond), int64(i%1000)*4096, 128, true); err != nil {
			t.Fatal(err)
		}
	}
	s := dev.Stats()
	if s.TailEvents == 0 {
		t.Fatal("Nand should exhibit long-tail events (§5.1 p99 effect)")
	}
	frac := float64(s.TailEvents) / float64(s.Reads)
	if frac < 0.002 || frac > 0.05 {
		t.Fatalf("tail fraction %g outside plausible band", frac)
	}
}

func TestWriteEnduranceAccounting(t *testing.T) {
	dev := newNand(t, 1<<20)
	if _, err := dev.AccountWrite(0, 0, 100); err != nil {
		t.Fatal(err)
	}
	s := dev.Stats()
	if s.BytesWritten != 4096 {
		t.Fatalf("endurance accounting %d, want full granule 4096", s.BytesWritten)
	}
}

func TestUpdateInterval(t *testing.T) {
	// 1 TB model on 2 TB of Nand at 5 DWPD: allowed 10 model-writes/day
	// → minimum interval 2.4 h.
	got := UpdateInterval(1<<40, 2<<40, 5)
	want := 24 * time.Hour / 10
	if got != want {
		t.Fatalf("update interval %v, want %v", got, want)
	}
	if UpdateInterval(1<<40, 0, 5) != 0 {
		t.Fatal("zero capacity should give 0")
	}
	// Optane's higher endurance permits much more frequent updates.
	nand := UpdateInterval(1<<40, 2<<40, Spec(NandFlash).EnduranceDWPD)
	opt := UpdateInterval(1<<40, 2<<40, Spec(OptaneSSD).EnduranceDWPD)
	if opt >= nand {
		t.Fatalf("Optane interval %v should beat Nand %v", opt, nand)
	}
}

// contents returns a copy of [off, off+n) of d's media.
func contents(t testing.TB, d *Device, off int64, n int) []byte {
	t.Helper()
	p := make([]byte, n)
	if err := d.PeekInto(p, off); err != nil {
		t.Fatal(err)
	}
	return p
}

// TestRangeCheckDoesNotWrap: an offset whose end wraps past MaxInt64 (a row
// index whose offset does, for Row and PokeRow) fails every entry point with
// ErrOutOfRange — no panic, no IO booked, no RNG draw
// — on a private device and on a load image, which stays unmaterialized.
func TestRangeCheckDoesNotWrap(t *testing.T) {
	const off = math.MaxInt64 - 2
	p := make([]byte, 8)
	for _, c := range []struct {
		name string
		call func(d *Device) error
	}{
		{"PeekInto", func(d *Device) error { return d.PeekInto(p, off) }},
		{"Row", func(d *Device) error { _, err := d.Row(0, off); return err }},
		{"PokeRow", func(d *Device) error { return d.PokeRow(0, off, p) }},
		{"PokeFrom", func(d *Device) error { return d.PokeFrom(p, off) }},
		{"AccountRead", func(d *Device) error { _, err := d.AccountRead(0, off, len(p), false); return err }},
		{"AccountWrite", func(d *Device) error { _, err := d.AccountWrite(0, off, len(p)); return err }},
	} {
		for _, loaded := range []bool{false, true} {
			d := newNand(t, 4096)
			if loaded {
				d = newLoadedPairs(t, 1)[0].dev
			}
			rng := *d.rng
			err := func() (err error) {
				defer func() {
					if r := recover(); r != nil {
						err = fmt.Errorf("panic: %v", r)
					}
				}()
				return c.call(d)
			}()
			if !errors.Is(err, ErrOutOfRange) {
				t.Errorf("%s (load image %v) at MaxInt64-2: want ErrOutOfRange, got %v", c.name, loaded, err)
			}
			if d.Stats() != (Stats{}) || *d.rng != rng || (d.data == nil) != loaded {
				t.Errorf("%s (load image %v): a rejected access booked %+v", c.name, loaded, d.Stats())
			}
		}
	}
}

// loadImage returns the stripes of a load image over three seeded tables
// and its flat bytes: a 40-byte-row table and a 132-byte-row one striped
// across two devices (this one taking the odd rows), then, after a 100-byte
// gap, a table of rows wider than a Nand granule, not striped. The image
// ends 5000 bytes of headroom before its capacity.
func loadImage(seed uint64) (stripes []Stripe, flat []byte) {
	rng := xrand.New(seed)
	off := int64(0)
	for _, tb := range []struct {
		rows, rowBytes, stride, phase, gap int64
	}{{37, 40, 2, 1, 0}, {50, 132, 2, 1, 0}, {10, 4100, 1, 0, 100}} {
		src := make([]byte, tb.rows*tb.rowBytes)
		for i := range src {
			src[i] = byte(rng.Uint64())
		}
		off += tb.gap
		flat = append(flat, make([]byte, tb.gap)...)
		st := Stripe{Off: off, Src: src, RowBytes: int(tb.rowBytes), Stride: tb.stride, Phase: tb.phase, Rows: (tb.rows - tb.phase + tb.stride - 1) / tb.stride}
		for r := int64(0); r < st.Rows; r++ {
			flat = append(flat, st.row(r)...)
		}
		off = st.end()
		stripes = append(stripes, st)
	}
	return stripes, append(flat, make([]byte, 5000)...)
}

// loadedPair drives a device over a load image by (stripe, row) and a flat
// reference device (New, poked with the image's bytes, same seed) by the
// row's offset, with the same operations: each row's data half on its own,
// then its timing half at the same offset on both.
type loadedPair struct {
	dev, ref *Device
	stripes  []Stripe
	orig     [][]byte // the loaded tables' bytes when the image was made
	changed  bool     // a write changed the media's bytes
}

// newLoadedPairs returns pairs whose devices share one loadImage(seed): the
// first plays a donor, the rest replicas.
func newLoadedPairs(t testing.TB, n int) []*loadedPair {
	t.Helper()
	spec := Spec(NandFlash)
	stripes, flat := loadImage(1)
	pairs := make([]*loadedPair, n)
	for i := range pairs {
		dev, err := NewLoaded(spec, int64(len(flat)), stripes, uint64(i+1))
		if err != nil {
			t.Fatal(err)
		}
		ref := New(spec, int64(len(flat)), nil, uint64(i+1))
		if err := ref.PokeFrom(flat, 0); err != nil {
			t.Fatal(err)
		}
		lp := &loadedPair{dev: dev, ref: ref, stripes: stripes}
		for _, st := range stripes {
			lp.orig = append(lp.orig, bytes.Clone(st.Src))
		}
		pairs[i] = lp
	}
	return pairs
}

// row reports whether (k, r) is a row of the image and, if so, its device
// offset and length.
func (lp *loadedPair) row(k int, r int64) (off int64, n int, ok bool) {
	if k < 0 || k >= len(lp.stripes) || r < 0 || r >= lp.stripes[k].Rows {
		return 0, 0, false
	}
	s := &lp.stripes[k]
	return s.Off + r*int64(s.RowBytes), s.RowBytes, true
}

// same requires the device and the reference to agree on an operation's
// outcome and, after it, on Stats and RNG state.
func (lp *loadedPair) same(t testing.TB, what string, done, refDone simclock.Time, err, refErr error) {
	t.Helper()
	if (err == nil) != (refErr == nil) || err != nil && !errors.Is(err, ErrOutOfRange) || done != refDone {
		t.Fatalf("%s: %v (done %v), reference %v (done %v)", what, err, done, refErr, refDone)
	}
	if lp.dev.Stats() != lp.ref.Stats() || *lp.dev.rng != *lp.ref.rng || lp.dev.Capacity() != lp.ref.Capacity() {
		t.Fatalf("%s: stats %+v, reference %+v", what, lp.dev.Stats(), lp.ref.Stats())
	}
}

// poke writes p as row r of stripe k: PokeRow on the device, PokeFrom at the
// row's offset on the reference, then AccountWrite there on both. Outside
// the image, or with p not one row long, PokeRow must fail with
// ErrOutOfRange.
func (lp *loadedPair) poke(t testing.TB, k int, r int64, p []byte) {
	t.Helper()
	err := lp.dev.PokeRow(k, r, p)
	off, n, ok := lp.row(k, r)
	if !ok || len(p) != n {
		if !errors.Is(err, ErrOutOfRange) {
			t.Fatalf("PokeRow(%d, %d) of %d bytes outside the image: %v", k, r, len(p), err)
		}
		return
	}
	before := contents(t, lp.ref, off, n)
	lp.same(t, fmt.Sprintf("PokeRow(%d, %d)", k, r), 0, 0, err, lp.ref.PokeFrom(p, off))
	lp.changed = lp.changed || !bytes.Equal(p, before)
	done, err := lp.dev.AccountWrite(simclock.Time(r), off, n)
	refDone, refErr := lp.ref.AccountWrite(simclock.Time(r), off, n)
	lp.same(t, fmt.Sprintf("AccountWrite of row (%d, %d)", k, r), done, refDone, err, refErr)
}

// peek reads row r of stripe k: Row on the device, PeekInto at the row's
// offset on the reference, then an SGL AccountRead there on both.
func (lp *loadedPair) peek(t testing.TB, k int, r int64) {
	t.Helper()
	got, err := lp.dev.Row(k, r)
	off, n, ok := lp.row(k, r)
	if !ok {
		if !errors.Is(err, ErrOutOfRange) {
			t.Fatalf("Row(%d, %d) outside the image: %v", k, r, err)
		}
		return
	}
	if want := contents(t, lp.ref, off, n); err != nil || !bytes.Equal(got, want) || cap(got) != n {
		t.Fatalf("Row(%d, %d): %v; equal to the reference %v, cap %d of %d", k, r, err, bytes.Equal(got, want), cap(got), n)
	}
	done, err := lp.dev.AccountRead(simclock.Time(r), off, n, true)
	refDone, refErr := lp.ref.AccountRead(simclock.Time(r), off, n, true)
	lp.same(t, fmt.Sprintf("AccountRead of row (%d, %d)", k, r), done, refDone, err, refErr)
}

// verify compares every row and then the whole media with the reference
// (through a shallow copy of the device, so that the peek by offset
// materializes the copy alone), and requires the loaded tables untouched
// and the device on its load image exactly while no write changed bytes.
func (lp *loadedPair) verify(t testing.TB) {
	t.Helper()
	for k, st := range lp.stripes {
		for r := int64(0); r < st.Rows; r++ {
			lp.peek(t, k, r)
		}
	}
	flat := *lp.dev
	if !bytes.Equal(contents(t, &flat, 0, int(lp.ref.Capacity())), contents(t, lp.ref, 0, int(lp.ref.Capacity()))) {
		t.Fatal("the media differs from the reference")
	}
	for i, st := range lp.stripes {
		if !bytes.Equal(st.Src, lp.orig[i]) {
			t.Fatalf("a write reached loaded table %d", i)
		}
	}
	if loaded := lp.dev.data == nil; loaded == lp.changed {
		t.Fatalf("device on its load image: %v, a write changed bytes: %v", loaded, lp.changed)
	}
}

// TestSharedImageMatchesPrivate is the differential for copy on change: 10⁴
// seeded row pokes and peeks, on a donor and a replica sharing one load
// image, match a flat reference device byte for byte, instant for instant,
// and leave the loaded tables untouched. The first 2000 operations rewrite
// the bytes already there and copy nothing.
func TestSharedImageMatchesPrivate(t *testing.T) {
	rng := xrand.New(9)
	pairs := newLoadedPairs(t, 2)
	for op := 0; op < 10000; op++ {
		if op == 2000 {
			for _, lp := range pairs {
				lp.verify(t)
			}
		}
		lp := pairs[rng.Intn(2)]
		k := rng.Intn(len(lp.stripes))
		r := rng.Int63n(lp.stripes[k].Rows)
		if rng.Intn(3) == 0 {
			lp.peek(t, k, r)
			continue
		}
		off, n, _ := lp.row(k, r)
		p := contents(t, lp.ref, off, n) // an equal rewrite
		if op >= 2000 && rng.Intn(2) == 0 {
			for i := range p {
				p[i] = byte(rng.Uint64())
			}
		}
		lp.poke(t, k, r, p)
		lp.peek(t, k, r)
	}
	for _, lp := range pairs {
		if !lp.changed {
			t.Fatal("fixture: no write changed the media")
		}
		lp.verify(t)
	}
}

// fuzzOp encodes one FuzzSharedImagePokes operation: an 8-byte row, a
// stripe byte and a flags byte — bit 0 rewrites the bytes already there,
// bit 1 keeps the row and the stripe as they are (else the row is reduced
// modulo the stripe's rows plus one and the stripe modulo the stripes plus
// one), bit 2 writes the donor instead of the replica, bit 3 drops the
// row's last byte.
func fuzzOp(k byte, r int64, flags byte) []byte {
	b := binary.LittleEndian.AppendUint64(nil, uint64(r))
	return append(b, k, flags)
}

// FuzzSharedImagePokes decodes a sequence of row pokes, each followed by a
// peek of the same row, and holds a donor and a replica sharing one load
// image to a flat reference device: same outcome, same bytes, same
// instants, loaded tables untouched, and the device still on its load image
// exactly while no write changed bytes.
func FuzzSharedImagePokes(f *testing.F) {
	f.Add(fuzzOp(0, 5, 0))                             // a changing write
	f.Add(fuzzOp(1, 3, 1))                             // an equal rewrite
	f.Add(fuzzOp(2, 9, 1))                             // rewrites the last row
	f.Add(fuzzOp(0, math.MaxInt64-2, 2))               // wraps a naive bound
	f.Add(append(fuzzOp(2, 0, 4), fuzzOp(2, 0, 5)...)) // donor, then a rewrite
	f.Add(fuzzOp(1, 0, 8))                             // a short row
	f.Fuzz(func(t *testing.T, ops []byte) {
		pairs := newLoadedPairs(t, 2)
		for i := 0; len(ops) >= 10 && i < 64; i, ops = i+1, ops[10:] {
			r, k, flags := int64(binary.LittleEndian.Uint64(ops)), int(int8(ops[8])), ops[9]
			lp := pairs[1]
			if flags&4 != 0 {
				lp = pairs[0]
			}
			if flags&2 == 0 {
				k = int(uint8(k)) % (len(lp.stripes) + 1)
				if k < len(lp.stripes) {
					r = int64(uint64(r) % uint64(lp.stripes[k].Rows+1))
				}
			}
			n := 40
			if _, m, ok := lp.row(k, r); ok {
				n = m
			}
			p := make([]byte, n)
			if off, _, ok := lp.row(k, r); ok && flags&1 != 0 {
				p = contents(t, lp.ref, off, n)
			} else {
				for j := range p {
					p[j] = byte(i + 3*j + 1)
				}
			}
			if flags&8 != 0 {
				p = p[:n-1]
			}
			lp.poke(t, k, r, p)
			lp.peek(t, k, r)
		}
		for _, lp := range pairs {
			lp.verify(t)
		}
	})
}

// TestLoadImageMatchesFlat drives a device over a load image and a flat New
// device loaded with the same bytes through one scripted sequence: the
// timing halves of reads and writes inside a row, across rows, across
// stripes, between them, in the headroom and out of range; Row, equal
// PokeRow and a short PokeRow of each stripe's first, middle and last row
// and of the row past its end. Then come changing PokeRows, the script
// again, and PeekInto and PokeFrom of every span on the materialized
// device. Both must return the same bytes, errors, completion instants,
// Stats and Capacity after every step. The equal writes keep the load
// image, the changing writes copy it exactly once, and a peek by offset
// materializes a fresh load image with the same bytes.
func TestLoadImageMatchesFlat(t *testing.T) {
	lp := newLoadedPairs(t, 1)[0]
	dev, ref := lp.dev, lp.ref
	capacity := ref.Capacity()
	spans := []struct {
		off int64
		n   int
	}{
		{0, 40}, {5, 20}, {0, 0}, {39, 2}, {30, 100}, // first stripe
		{700, 40}, {700, 60}, {720, 132}, {800, 400}, // into the second
		{4000, 20}, {4010, 50}, {4020, 100}, {4100, 40}, // its end, the gap
		{4120, 4100}, {8190, 8}, {4120, 41000}, // a wide row, across a granule
		{capacity - 5000, 5000}, {capacity - 5010, 20}, {0, int(capacity)}, // headroom
		{capacity - 1, 2}, {-1, 1}, {math.MaxInt64 - 2, 8}, // out of range
	}
	script := func(round int) {
		for _, sp := range spans {
			what := fmt.Sprintf("round %d, %d bytes at %d", round, sp.n, sp.off)
			for _, sgl := range []bool{false, true} {
				done, err := dev.AccountRead(simclock.Time(sp.n), sp.off, sp.n, sgl)
				refDone, refErr := ref.AccountRead(simclock.Time(sp.n), sp.off, sp.n, sgl)
				lp.same(t, fmt.Sprintf("AccountRead (sgl %v), %s", sgl, what), done, refDone, err, refErr)
			}
			done, err := dev.AccountWrite(0, sp.off, sp.n)
			refDone, refErr := ref.AccountWrite(0, sp.off, sp.n)
			lp.same(t, "AccountWrite, "+what, done, refDone, err, refErr)
		}
		for k, st := range lp.stripes {
			for _, r := range []int64{0, st.Rows / 2, st.Rows - 1, st.Rows} {
				lp.peek(t, k, r)
				off, n, _ := lp.row(k, min(r, st.Rows-1))
				p := contents(t, ref, off, n)
				lp.poke(t, k, r, p)
				lp.poke(t, k, r, p[1:])
			}
		}
	}
	script(0)
	if dev.data != nil {
		t.Fatal("equal writes materialized the load image")
	}
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for _, row := range []struct {
		k int
		r int64
	}{{2, 0}, {0, 3}, {1, 24}, {2, 9}} {
		off, n, _ := lp.row(row.k, row.r)
		p := contents(t, ref, off, n)
		p[n/2]++
		lp.poke(t, row.k, row.r, p)
	}
	runtime.ReadMemStats(&m1)
	if got := int64(m1.TotalAlloc - m0.TotalAlloc); dev.data == nil || got < capacity || got >= 2*capacity {
		t.Fatalf("four changing writes allocated %d bytes, want one %d-byte copy of the media", got, capacity)
	}
	script(1)
	for i, sp := range spans {
		got, want := make([]byte, sp.n), make([]byte, sp.n)
		err, refErr := dev.PeekInto(got, sp.off), ref.PeekInto(want, sp.off)
		lp.same(t, fmt.Sprintf("PeekInto of %d bytes at %d", sp.n, sp.off), 0, 0, err, refErr)
		if !bytes.Equal(got, want) {
			t.Fatalf("PeekInto of %d bytes at %d: bytes differ", sp.n, sp.off)
		}
		for j := range got {
			got[j] = byte(i + j)
		}
		err, refErr = dev.PokeFrom(got, sp.off), ref.PokeFrom(got, sp.off)
		lp.same(t, fmt.Sprintf("PokeFrom of %d bytes at %d", sp.n, sp.off), 0, 0, err, refErr)
	}
	lp.changed = true
	lp.verify(t)
	// A peek by offset materializes a fresh load image with the same bytes.
	fresh := newLoadedPairs(t, 1)[0]
	got := contents(t, fresh.dev, 0, int(capacity))
	if fresh.dev.data == nil || !bytes.Equal(got, contents(t, fresh.ref, 0, int(capacity))) {
		t.Fatalf("PeekInto of a load image: materialized %v, bytes equal %v", fresh.dev.data != nil, bytes.Equal(got, contents(t, fresh.ref, 0, int(capacity))))
	}
}

// TestNewLoadedRejectsBadStripes: NewLoaded refuses stripes that overlap,
// run out of order, leave the capacity or their source, or are malformed.
func TestNewLoadedRejectsBadStripes(t *testing.T) {
	src := make([]byte, 100)
	ok := Stripe{Off: 10, Src: src, RowBytes: 10, Stride: 2, Phase: 1, Rows: 5}
	if _, err := NewLoaded(Spec(NandFlash), 60, []Stripe{ok, {Off: 60, Src: src, RowBytes: 10, Stride: 1}}, 1); err != nil {
		t.Fatalf("valid stripes (the second empty): %v", err)
	}
	for name, st := range map[string][]Stripe{
		"overlap":        {ok, {Off: 50, Src: src, RowBytes: 10, Stride: 1, Rows: 1}},
		"past capacity":  {{Off: 20, Src: src, RowBytes: 10, Stride: 1, Rows: 5}},
		"past source":    {{Src: src, RowBytes: 10, Stride: 2, Phase: 1, Rows: 6}},
		"zero row bytes": {{Src: src, Stride: 1, Rows: 1}},
		"zero stride":    {{Src: src, RowBytes: 10, Rows: 1}},
		"negative phase": {{Src: src, RowBytes: 10, Stride: 1, Phase: -1, Rows: 1}},
	} {
		if _, err := NewLoaded(Spec(NandFlash), 60, st, 1); !errors.Is(err, ErrOutOfRange) {
			t.Errorf("%s: want ErrOutOfRange, got %v", name, err)
		}
	}
}

func TestDeviceChannels(t *testing.T) {
	dev := newNand(t, 4096)
	// channels ≈ MaxIOPS × mediaLatency = 500e3 × 90µs = 45.
	if ch := len(dev.channels); ch < 20 || ch > 90 {
		t.Fatalf("channels %d outside expected band", ch)
	}
	if dev.MaxOutstanding == 0 {
		t.Fatal("Nand should carry a recommended outstanding cap (§4.1)")
	}
}

// linearDevice is the timing model as it was before the channel heap: every
// media access scans all channels for the earliest-free one and books that
// slot. It shares nothing with Device.
type linearDevice struct {
	spec     TechSpec
	rng      *xrand.RNG
	channels []simclock.Time
	stats    Stats
}

func (m *linearDevice) account(now simclock.Time, off int64, n int, write, sgl bool) simclock.Time {
	spec := m.spec
	gran := int64(spec.AccessGranularity)
	granules := (off+int64(n)-1)/gran - off/gran + 1
	span := int(granules * gran)
	busTime := func(n int) simclock.Time {
		return simclock.Time(float64(n) / spec.BusBandwidth * float64(time.Second))
	}
	done := now
	for ; granules > 0; granules-- {
		best := 0
		for i, t := range m.channels {
			if t < m.channels[best] {
				best = i
			}
		}
		svc := spec.MediaLatency
		if write {
			svc = spec.WriteLatency
		}
		if spec.TailProb > 0 && m.rng.Float64() < spec.TailProb {
			svc = time.Duration(float64(svc) * spec.TailFactor)
			m.stats.TailEvents++
		}
		svc = time.Duration(float64(svc) * (0.9 + 0.2*m.rng.Float64()))
		end := max(now, m.channels[best]) + simclock.Time(svc)
		m.channels[best] = end
		done = max(done, end)
	}
	if write {
		m.stats.Writes++
		m.stats.BusWriteBytes += uint64(n)
		m.stats.BytesWritten += uint64(span)
		return done + busTime(n)
	}
	bus := span
	if sgl {
		bus = n // only the requested bytes cross the link
	}
	m.stats.Reads++
	m.stats.MediaBytes += uint64(span)
	m.stats.RequestedBytes += uint64(n)
	m.stats.BusBytes += uint64(bus)
	return done + busTime(bus)
}

// TestChannelHeapMatchesLinearScan drives a device and the linear-scan model
// with the same 10⁵ reads and writes — idle gaps, same-instant bursts that
// queue behind every channel, reads spanning several granules — and requires
// equal completion instants, counters and RNG state after every IO.
func TestChannelHeapMatchesLinearScan(t *testing.T) {
	one := Spec(OptaneSSD)
	one.MaxIOPS = 1 / one.MediaLatency.Seconds() // a single channel
	for _, c := range []struct {
		spec     TechSpec
		channels int
	}{{Spec(NandFlash), 45}, {Spec(OptaneSSD), 40}, {Spec(DIMM3DXP), 6}, {one, 1}} {
		const capacity = 1 << 20
		const seed = 77
		dev := New(c.spec, capacity, nil, seed)
		if len(dev.channels) != c.channels {
			t.Fatalf("%v: %d channels, want %d", c.spec.Tech, len(dev.channels), c.channels)
		}
		ref := &linearDevice{spec: c.spec, rng: xrand.New(seed), channels: make([]simclock.Time, c.channels)}
		rng := xrand.New(5)
		gran := c.spec.AccessGranularity
		// One IO in four starts a new instant and the rest pile onto it; the
		// gaps average the time the channels need for four IOs (≈ 1.3
		// granules each, one in five a write), so the device hovers around
		// saturation, queueing behind every channel and draining again.
		meanGap := 4 * 1.3 * (0.8*float64(c.spec.MediaLatency) + 0.2*float64(c.spec.WriteLatency)) / float64(c.channels)
		var now simclock.Time
		for op := 0; op < 100000; op++ {
			if rng.Intn(4) == 0 {
				now += simclock.Time(rng.Float64() * 2 * meanGap)
			}
			n := 1 + rng.Intn(gran)
			if rng.Intn(8) == 0 {
				n = 1 + rng.Intn(5*gran) // up to six granules
			}
			off := rng.Int63n(capacity - int64(n))
			write, sgl := rng.Intn(5) == 0, rng.Intn(2) == 0
			var got simclock.Time
			var err error
			if write {
				got, err = dev.AccountWrite(now, off, n)
			} else {
				got, err = dev.AccountRead(now, off, n, sgl)
			}
			if err != nil {
				t.Fatal(err)
			}
			if want := ref.account(now, off, n, write, sgl); got != want {
				t.Fatalf("%v op %d (write=%v n=%d): done %v, linear scan %v", c.spec.Tech, op, write, n, got, want)
			}
			if dev.stats != ref.stats || *dev.rng != *ref.rng {
				t.Fatalf("%v op %d: stats %+v vs %+v, rng %v vs %v", c.spec.Tech, op, dev.stats, ref.stats, *dev.rng, *ref.rng)
			}
		}
	}
}

// TestRowMatchesFlat: Row, the copy-free read, lends exactly the bytes a
// flat reference device holds at the row's offset, with the slice's
// capacity ending at the row, on a donor and a replica over one load image
// and again once a write has materialized them; it fails with
// ErrOutOfRange outside the stripes (and on a device with none) and with
// ErrClosed on a closed device. A row lent by a load image keeps the bytes
// it had after a write changes them: the write lands on the device's
// private copy.
func TestRowMatchesFlat(t *testing.T) {
	pairs := newLoadedPairs(t, 2)
	rowsMatch := func(lp *loadedPair) {
		t.Helper()
		for k, st := range lp.stripes {
			for _, r := range []int64{-1, 0, st.Rows / 2, st.Rows - 1, st.Rows} {
				lp.peek(t, k, r)
			}
		}
		for _, k := range []int{-1, len(lp.stripes)} {
			lp.peek(t, k, 0)
		}
	}
	for _, lp := range pairs {
		rowsMatch(lp)
		v, err := lp.dev.Row(0, 2)
		if err != nil || lp.dev.data != nil {
			t.Fatalf("Row of a load image: %v, materialized %v", err, lp.dev.data != nil)
		}
		old := bytes.Clone(v)
		lp.poke(t, 0, 2, make([]byte, len(v)))
		if !bytes.Equal(v, old) {
			t.Fatal("a write changed a load image's lent row")
		}
		rowsMatch(lp)
		lp.verify(t)
	}
	if _, err := pairs[0].ref.Row(0, 0); !errors.Is(err, ErrOutOfRange) {
		t.Fatalf("Row of a device without stripes: %v", err)
	}
	closed := newLoadedPairs(t, 1)[0].dev
	closed.Close()
	if _, err := closed.Row(0, 0); !errors.Is(err, ErrClosed) || !errors.Is(closed.PeekInto(make([]byte, 8), 0), ErrClosed) {
		t.Fatalf("Row on a closed device: %v", err)
	}
}
