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
	if _, err := dev.Write(0, src, 4096); err != nil {
		t.Fatal(err)
	}
	dst := make([]byte, len(src))
	if _, err := dev.Read(0, dst, 4096); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(src, dst) {
		t.Fatalf("read %q, want %q", dst, src)
	}
}

// TestPokeFromPlusAccountWriteIsWrite: the split halves of a write leave a
// same-seed device in exactly the state Write does, and poking a device
// over a load image writes to a private copy, not to the loaded table.
func TestPokeFromPlusAccountWriteIsWrite(t *testing.T) {
	whole := newNand(t, 1<<20)
	split := newNand(t, 1<<20)
	src := bytes.Repeat([]byte{0xab}, 5000)
	for i := int64(0); i < 20; i++ {
		off := i * 9000
		want, err := whole.Write(0, src, off)
		if err != nil {
			t.Fatal(err)
		}
		if err := split.PokeFrom(src, off); err != nil {
			t.Fatal(err)
		}
		got, err := split.AccountWrite(0, off, len(src))
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Fatalf("write %d: split completes at %v, Write at %v", i, got, want)
		}
	}
	if whole.Stats() != split.Stats() || !bytes.Equal(contents(t, whole, 0, 1<<20), contents(t, split, 0, 1<<20)) {
		t.Fatalf("split write diverged from Write:\n%+v\n%+v", split.Stats(), whole.Stats())
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
	if _, err := dev.Read(0, buf, 4096-64); !errors.Is(err, ErrOutOfRange) {
		t.Fatalf("want ErrOutOfRange, got %v", err)
	}
	if _, err := dev.Read(0, buf, -1); !errors.Is(err, ErrOutOfRange) {
		t.Fatalf("negative offset: want ErrOutOfRange, got %v", err)
	}
}

func TestClosedDevice(t *testing.T) {
	dev := newNand(t, 4096)
	dev.Close()
	if _, err := dev.Read(0, make([]byte, 8), 0); !errors.Is(err, ErrClosed) {
		t.Fatalf("want ErrClosed, got %v", err)
	}
	if _, err := dev.Write(0, make([]byte, 8), 0); !errors.Is(err, ErrClosed) {
		t.Fatalf("want ErrClosed, got %v", err)
	}
}

func TestReadAmplification(t *testing.T) {
	dev := newNand(t, 1<<20)
	buf := make([]byte, 128)
	// 128 B from a 4 KiB-granularity device: 32× amplification.
	if _, err := dev.Read(0, buf, 0); err != nil {
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
	buf := make([]byte, 128)
	for i := 0; i < 100; i++ {
		if _, err := dev.ReadSGL(0, buf, int64(i)*4096); err != nil {
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
	if _, err := dev.Write(0, src, off); err != nil {
		t.Fatal(err)
	}
	before := dev.Stats().MediaBytes
	dst := make([]byte, 256)
	if _, err := dev.ReadSGL(0, dst, off); err != nil {
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
	buf := make([]byte, 128)
	done, err := dev.ReadSGL(0, buf, 0)
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
	buf := make([]byte, 128)
	var first, last simclock.Time
	const n = 2000
	for i := 0; i < n; i++ {
		done, err := dev.ReadSGL(0, buf, int64(i%1000)*4096)
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
	buf := make([]byte, 128)
	const n = 50000
	var last simclock.Time
	for i := 0; i < n; i++ {
		done, err := dev.ReadSGL(0, buf, int64(i%1000)*512)
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
		buf := make([]byte, 128)
		const n = 20000
		var last simclock.Time
		var sum time.Duration
		for i := 0; i < n; i++ {
			// Pace submissions at 80% of ceiling to stay in the stable
			// region.
			at := simclock.Time(float64(i) / (0.8 * Spec(tech).MaxIOPS) * float64(time.Second))
			done, err := dev.ReadSGL(at, buf, int64(i%1000)*4096)
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
	buf := make([]byte, 128)
	for i := 0; i < 20000; i++ {
		if _, err := dev.ReadSGL(simclock.Time(i)*simclock.Time(10*time.Microsecond), buf, int64(i%1000)*4096); err != nil {
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
	if _, err := dev.Write(0, make([]byte, 100), 0); err != nil {
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
		{"Read", func(d *Device) error { _, err := d.Read(0, p, off); return err }},
		{"ReadSGL", func(d *Device) error { _, err := d.ReadSGL(0, p, off); return err }},
		{"Write", func(d *Device) error { _, err := d.Write(0, p, off); return err }},
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

// loadedPair drives a device over a load image and a flat reference device
// (New, poked with the image's bytes, same seed) with the same operations.
type loadedPair struct {
	dev, ref *Device
	srcs     [][]byte // the loaded tables
	orig     [][]byte // their bytes when the image was made
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
		lp := &loadedPair{dev: dev, ref: ref}
		for _, st := range stripes {
			lp.srcs = append(lp.srcs, st.Src)
			lp.orig = append(lp.orig, bytes.Clone(st.Src))
		}
		pairs[i] = lp
	}
	return pairs
}

// poke writes p at off on both devices and requires the same outcome.
func (lp *loadedPair) poke(t testing.TB, p []byte, off int64) {
	t.Helper()
	before := make([]byte, len(p))
	inRange := lp.ref.PeekInto(before, off) == nil
	err, refErr := lp.dev.PokeFrom(p, off), lp.ref.PokeFrom(p, off)
	if (err == nil) != (refErr == nil) || (err != nil && !errors.Is(err, ErrOutOfRange)) {
		t.Fatalf("PokeFrom(%d bytes at %d): %v, reference %v", len(p), off, err, refErr)
	}
	lp.changed = lp.changed || inRange && !bytes.Equal(p, before)
}

// peek reads [off, off+n) off both devices and requires the same bytes.
func (lp *loadedPair) peek(t testing.TB, off int64, n int) {
	t.Helper()
	got, want := make([]byte, n), make([]byte, n)
	err, refErr := lp.dev.PeekInto(got, off), lp.ref.PeekInto(want, off)
	if (err == nil) != (refErr == nil) || !bytes.Equal(got, want) {
		t.Fatalf("PeekInto(%d bytes at %d): %v, reference %v; bytes differ: %v", n, off, err, refErr, !bytes.Equal(got, want))
	}
}

// verify compares the whole media with the reference and requires the loaded
// tables untouched and the device on its load image exactly while no write
// changed bytes.
func (lp *loadedPair) verify(t testing.TB) {
	t.Helper()
	lp.peek(t, 0, int(lp.ref.Capacity()))
	for i := range lp.srcs {
		if !bytes.Equal(lp.srcs[i], lp.orig[i]) {
			t.Fatalf("a write reached loaded table %d", i)
		}
	}
	if loaded := lp.dev.data == nil; loaded == lp.changed {
		t.Fatalf("device on its load image: %v, a write changed bytes: %v", loaded, lp.changed)
	}
}

// TestSharedImageMatchesPrivate is the differential for copy on change: 10⁴
// seeded pokes and peeks, on a donor and a replica sharing one load image,
// match a flat reference device byte for byte and leave the loaded tables
// untouched. The first 2000 operations rewrite the bytes already there and
// copy nothing.
func TestSharedImageMatchesPrivate(t *testing.T) {
	rng := xrand.New(9)
	pairs := newLoadedPairs(t, 2)
	capacity := pairs[0].ref.Capacity()
	for op := 0; op < 10000; op++ {
		if op == 2000 {
			for _, lp := range pairs {
				lp.verify(t)
			}
		}
		lp := pairs[rng.Intn(2)]
		off := rng.Int63n(capacity)
		n := int(min(rng.Int63n(10<<10)+1, capacity-off))
		if rng.Intn(3) == 0 {
			lp.peek(t, off, n)
			continue
		}
		p := contents(t, lp.ref, off, n) // an equal rewrite
		if op >= 2000 && rng.Intn(2) == 0 {
			for i := range p {
				p[i] = byte(rng.Uint64())
			}
		}
		lp.poke(t, p, off)
		lp.peek(t, off, n)
	}
	for _, lp := range pairs {
		if !lp.changed {
			t.Fatal("fixture: no write changed the media")
		}
		lp.verify(t)
	}
}

// fuzzOp encodes one FuzzSharedImagePokes operation: an 8-byte offset, a
// 2-byte length and a flags byte — bit 0 rewrites the bytes already there,
// bit 1 keeps the offset as is (else it is reduced modulo 4 KiB past the
// capacity), bit 2 writes the donor instead of the replica.
func fuzzOp(off int64, n uint16, flags byte) []byte {
	b := binary.LittleEndian.AppendUint64(nil, uint64(off))
	return append(binary.LittleEndian.AppendUint16(b, n), flags)
}

// FuzzSharedImagePokes decodes a sequence of pokes, each followed by a peek
// of the same range, and holds a donor and a replica sharing one load image
// to a flat reference device: same outcome, same bytes, loaded tables
// untouched, and the device still on its load image exactly while no write
// changed bytes.
func FuzzSharedImagePokes(f *testing.F) {
	_, flat := loadImage(1)
	capacity := int64(len(flat))
	f.Add(fuzzOp(4086, 20, 0))                             // a changing write
	f.Add(fuzzOp(100, 50, 1))                              // an equal rewrite
	f.Add(fuzzOp(capacity-400, 400, 1))                    // rewrites the last bytes
	f.Add(fuzzOp(math.MaxInt64-2, 8, 2))                   // wraps a naive bound
	f.Add(append(fuzzOp(0, 9000, 4), fuzzOp(10, 5, 5)...)) // donor, then a rewrite
	f.Add(fuzzOp(4020, 200, 0))                            // zeros between stripes
	f.Fuzz(func(t *testing.T, ops []byte) {
		pairs := newLoadedPairs(t, 2)
		for i := 0; len(ops) >= 11 && i < 64; i, ops = i+1, ops[11:] {
			off := int64(binary.LittleEndian.Uint64(ops))
			n, flags := int(binary.LittleEndian.Uint16(ops[8:])), ops[10]
			if flags&2 == 0 {
				off = int64(uint64(off) % uint64(capacity+4096))
			}
			lp := pairs[1]
			if flags&4 != 0 {
				lp = pairs[0]
			}
			p := make([]byte, n)
			if flags&1 == 0 || lp.ref.PeekInto(p, off) != nil {
				for j := range p {
					p[j] = byte(i + 3*j + 1)
				}
			}
			lp.poke(t, p, off)
			lp.peek(t, off, n)
		}
		for _, lp := range pairs {
			lp.verify(t)
		}
	})
}

// TestLoadImageMatchesFlat drives a device over a load image and a flat New
// device loaded with the same bytes through one scripted sequence — PeekInto
// inside a row, across rows, across stripes, between them and in the
// headroom; Row of each stripe's first and last row; PokeFrom and PokeRow of
// equal bytes; timed Read, ReadSGL and Write — then changing writes (a
// PokeRow among them) and the whole script again on the materialized device.
// Both must return the same bytes, errors, completion instants, Stats and
// Capacity after every step. The equal writes keep the load image, and the
// changing writes copy it exactly once.
func TestLoadImageMatchesFlat(t *testing.T) {
	lp := newLoadedPairs(t, 1)[0]
	dev, ref := lp.dev, lp.ref
	capacity := ref.Capacity()
	stripes, _ := loadImage(1)
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
	same := func(what string, got, want []byte, err, refErr error, done, refDone simclock.Time) {
		t.Helper()
		if (err == nil) != (refErr == nil) || err != nil && !errors.Is(err, ErrOutOfRange) || !bytes.Equal(got, want) || done != refDone {
			t.Fatalf("%s: %v (done %v), reference %v (done %v); bytes equal %v", what, err, done, refErr, refDone, bytes.Equal(got, want))
		}
		if dev.Stats() != ref.Stats() || *dev.rng != *ref.rng || dev.Capacity() != ref.Capacity() {
			t.Fatalf("%s: stats %+v, reference %+v; capacity %d, %d", what, dev.Stats(), ref.Stats(), dev.Capacity(), ref.Capacity())
		}
	}
	script := func(round int) {
		for _, sp := range spans {
			what := fmt.Sprintf("round %d, %d bytes at %d", round, sp.n, sp.off)
			got, want := make([]byte, sp.n), make([]byte, sp.n)
			err, refErr := dev.PeekInto(got, sp.off), ref.PeekInto(want, sp.off)
			same("PeekInto, "+what, got, want, err, refErr, 0, 0)
			p := bytes.Clone(want)
			err, refErr = dev.PokeFrom(p, sp.off), ref.PokeFrom(p, sp.off)
			same("equal PokeFrom, "+what, nil, nil, err, refErr, 0, 0)
			done, err := dev.Read(simclock.Time(sp.n), got, sp.off)
			refDone, refErr := ref.Read(simclock.Time(sp.n), want, sp.off)
			same("Read, "+what, got, want, err, refErr, done, refDone)
			done, err = dev.ReadSGL(simclock.Time(sp.n), got, sp.off)
			refDone, refErr = ref.ReadSGL(simclock.Time(sp.n), want, sp.off)
			same("ReadSGL, "+what, got, want, err, refErr, done, refDone)
			done, err = dev.Write(0, got, sp.off)
			refDone, refErr = ref.Write(0, got, sp.off)
			same("equal Write, "+what, nil, nil, err, refErr, done, refDone)
		}
		for k, st := range stripes {
			for _, r := range []int64{0, st.Rows - 1, st.Rows} {
				off := st.Off + r*int64(st.RowBytes)
				p := contents(t, ref, min(off, capacity-int64(st.RowBytes)), st.RowBytes)
				if r < st.Rows {
					v, err := dev.Row(k, r)
					same(fmt.Sprintf("round %d, Row(%d, %d)", round, k, r), v, p, err, nil, 0, 0)
				}
				err := dev.PokeRow(k, r, p)
				if r == st.Rows {
					if !errors.Is(err, ErrOutOfRange) || !errors.Is(dev.PokeRow(k, 0, p[1:]), ErrOutOfRange) {
						t.Fatalf("round %d: PokeRow of row %d of %d, or of a short row: %v", round, r, st.Rows, err)
					}
					continue
				}
				same(fmt.Sprintf("round %d, equal PokeRow(%d, %d)", round, k, r), nil, nil, err, ref.PokeFrom(p, off), 0, 0)
			}
		}
	}
	script(0)
	if dev.data != nil {
		t.Fatal("equal writes materialized the load image")
	}
	row := contents(t, ref, stripes[2].Off, stripes[2].RowBytes)
	row[9]++
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	err := dev.PokeRow(2, 0, row)
	done, _ := dev.AccountWrite(0, stripes[2].Off, len(row))
	refDone, refErr := ref.Write(0, row, stripes[2].Off)
	same("changing PokeRow", nil, nil, err, refErr, done, refDone)
	for i, off := range []int64{4110, 30, capacity - 10} {
		p := []byte{1, 2, byte(i), 4, 5}
		done, err := dev.Write(0, p, off)
		refDone, refErr := ref.Write(0, p, off)
		same(fmt.Sprintf("changing Write %d", i), nil, nil, err, refErr, done, refDone)
	}
	runtime.ReadMemStats(&m1)
	if got := int64(m1.TotalAlloc - m0.TotalAlloc); dev.data == nil || got < capacity || got >= 2*capacity {
		t.Fatalf("four changing writes allocated %d bytes, want one %d-byte copy of the media", got, capacity)
	}
	script(1)
	lp.changed = true
	lp.verify(t)
	// A changing write to zeros alone, in the gap or the headroom, copies too.
	for _, off := range []int64{4050, capacity - 1} {
		lp := newLoadedPairs(t, 1)[0]
		lp.poke(t, []byte{7}, off)
		lp.verify(t)
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

// TestViewMatchesPeekInto: Row, the copy-free read, lends exactly the bytes
// PeekInto copies at the row's offset, with the slice's capacity ending at
// the row, on a donor and a replica over one load image and again once a
// write has materialized them; it fails with ErrOutOfRange outside the
// stripes (and on a device with none) and with ErrClosed on a closed device.
// A row lent by a load image keeps the bytes it had after a write changes
// them: the write lands on the device's private copy.
func TestViewMatchesPeekInto(t *testing.T) {
	pairs := newLoadedPairs(t, 2)
	stripes, _ := loadImage(1)
	rowsMatch := func(lp *loadedPair) {
		t.Helper()
		for k, st := range stripes {
			for _, r := range []int64{0, st.Rows / 2, st.Rows - 1} {
				row, err := lp.dev.Row(k, r)
				want := contents(t, lp.ref, st.Off+r*int64(st.RowBytes), st.RowBytes)
				if err != nil || !bytes.Equal(row, want) || cap(row) != st.RowBytes {
					t.Fatalf("Row(%d, %d): %v; equal to PeekInto %v, cap %d", k, r, err, bytes.Equal(row, want), cap(row))
				}
			}
			for _, r := range []int64{-1, st.Rows} {
				if _, err := lp.dev.Row(k, r); !errors.Is(err, ErrOutOfRange) {
					t.Fatalf("Row(%d, %d) of %d rows: %v", k, r, st.Rows, err)
				}
			}
		}
		for _, k := range []int{-1, len(stripes)} {
			if _, err := lp.dev.Row(k, 0); !errors.Is(err, ErrOutOfRange) {
				t.Fatalf("Row of stripe %d of %d: %v", k, len(stripes), err)
			}
		}
	}
	for _, lp := range pairs {
		rowsMatch(lp)
		v, err := lp.dev.Row(0, 2) // device bytes [80, 120)
		if err != nil || lp.dev.data != nil {
			t.Fatalf("Row of a load image: %v, materialized %v", err, lp.dev.data != nil)
		}
		old := bytes.Clone(v)
		lp.poke(t, make([]byte, 32), 80)
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
