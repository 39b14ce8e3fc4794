package blockdev

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
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
// that shares its image writes to a private copy.
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

	image := whole.ShareImage()
	replica := NewShared(Spec(NandFlash), image, nil, 2)
	if err := replica.PokeFrom([]byte{1, 2, 3}, 0); err != nil {
		t.Fatal(err)
	}
	if image[0] != 0xab || contents(t, replica, 0, 1)[0] != 1 {
		t.Fatal("poke on a shared image must copy first")
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

// TestRangeCheckDoesNotWrap: an offset whose end wraps past MaxInt64 fails
// every entry point with ErrOutOfRange — no panic, no IO booked, no RNG draw
// — on a private and on a shared device.
func TestRangeCheckDoesNotWrap(t *testing.T) {
	const off = math.MaxInt64 - 2
	p := make([]byte, 8)
	for _, c := range []struct {
		name string
		call func(d *Device) error
	}{
		{"PeekInto", func(d *Device) error { return d.PeekInto(p, off) }},
		{"PokeFrom", func(d *Device) error { return d.PokeFrom(p, off) }},
		{"Read", func(d *Device) error { _, err := d.Read(0, p, off); return err }},
		{"ReadSGL", func(d *Device) error { _, err := d.ReadSGL(0, p, off); return err }},
		{"Write", func(d *Device) error { _, err := d.Write(0, p, off); return err }},
		{"AccountRead", func(d *Device) error { _, err := d.AccountRead(0, off, len(p), false); return err }},
		{"AccountWrite", func(d *Device) error { _, err := d.AccountWrite(0, off, len(p)); return err }},
	} {
		for _, shared := range []bool{false, true} {
			d := newNand(t, 4096)
			if shared {
				d = NewShared(Spec(NandFlash), d.ShareImage(), nil, 1)
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
				t.Errorf("%s (shared %v) at MaxInt64-2: want ErrOutOfRange, got %v", c.name, shared, err)
			}
			if d.Stats() != (Stats{}) || *d.rng != rng || d.shared != shared {
				t.Errorf("%s (shared %v): a rejected access booked %+v", c.name, shared, d.Stats())
			}
		}
	}
}

// sharedPair drives a device over a shared image (a replica, or the donor
// after ShareImage) and a private reference device (New plus the same
// pokes) with the same operations.
type sharedPair struct {
	dev, ref *Device
	image    []byte
	orig     []byte // the image's bytes when it was shared
	changed  bool   // a write changed the media's bytes
}

// newSharedPairs loads image bytes onto a donor, shares its media and returns
// the donor's pair and a replica's.
func newSharedPairs(t testing.TB, image []byte) (donor, replica *sharedPair) {
	t.Helper()
	spec := Spec(NandFlash)
	pair := func(dev *Device) *sharedPair {
		ref := New(spec, int64(len(image)), nil, 1)
		if err := ref.PokeFrom(image, 0); err != nil {
			t.Fatal(err)
		}
		return &sharedPair{dev: dev, ref: ref}
	}
	d := New(spec, int64(len(image)), nil, 1)
	if err := d.PokeFrom(image, 0); err != nil {
		t.Fatal(err)
	}
	donor, shared := pair(d), d.ShareImage()
	replica = pair(NewShared(spec, shared, nil, 2))
	for _, sp := range []*sharedPair{donor, replica} {
		sp.image, sp.orig = shared, append([]byte(nil), image...)
	}
	return donor, replica
}

// poke writes p at off on both devices and requires the same outcome.
func (sp *sharedPair) poke(t testing.TB, p []byte, off int64) {
	t.Helper()
	before := make([]byte, len(p))
	inRange := sp.ref.PeekInto(before, off) == nil
	err, refErr := sp.dev.PokeFrom(p, off), sp.ref.PokeFrom(p, off)
	if (err == nil) != (refErr == nil) || (err != nil && !errors.Is(err, ErrOutOfRange)) {
		t.Fatalf("PokeFrom(%d bytes at %d): %v, reference %v", len(p), off, err, refErr)
	}
	sp.changed = sp.changed || inRange && !bytes.Equal(p, before)
}

// peek reads [off, off+n) off both devices and requires the same bytes.
func (sp *sharedPair) peek(t testing.TB, off int64, n int) {
	t.Helper()
	got, want := make([]byte, n), make([]byte, n)
	err, refErr := sp.dev.PeekInto(got, off), sp.ref.PeekInto(want, off)
	if (err == nil) != (refErr == nil) || !bytes.Equal(got, want) {
		t.Fatalf("PeekInto(%d bytes at %d): %v, reference %v; bytes differ: %v", n, off, err, refErr, !bytes.Equal(got, want))
	}
}

// verify compares the whole media with the reference and requires the image
// untouched and the device still on it exactly while no write changed bytes.
func (sp *sharedPair) verify(t testing.TB) {
	t.Helper()
	sp.peek(t, 0, len(sp.image))
	if !bytes.Equal(sp.image, sp.orig) {
		t.Fatal("a write reached the shared image")
	}
	if sp.dev.shared == sp.changed {
		t.Fatalf("device shares the image: %v, a write changed bytes: %v", sp.dev.shared, sp.changed)
	}
}

// TestSharedImageMatchesPrivate is the differential for copy on change: 10⁴
// seeded pokes and peeks, on a donor and a replica sharing one image, match a
// private reference device byte for byte and leave the image untouched. The
// first 2000 operations rewrite the bytes already there and copy nothing.
func TestSharedImageMatchesPrivate(t *testing.T) {
	const capacity = 5<<12 + 1000
	rng := xrand.New(9)
	image := make([]byte, capacity)
	for i := range image {
		image[i] = byte(rng.Uint64())
	}
	donor, replica := newSharedPairs(t, image)
	for op := 0; op < 10000; op++ {
		if op == 2000 {
			donor.verify(t)
			replica.verify(t)
		}
		sp := []*sharedPair{donor, replica}[rng.Intn(2)]
		off := rng.Int63n(capacity)
		n := int(min(rng.Int63n(10<<10)+1, capacity-off))
		if rng.Intn(3) == 0 {
			sp.peek(t, off, n)
			continue
		}
		p := contents(t, sp.ref, off, n) // an equal rewrite
		if op >= 2000 && rng.Intn(2) == 0 {
			for i := range p {
				p[i] = byte(rng.Uint64())
			}
		}
		sp.poke(t, p, off)
		sp.peek(t, off, n)
	}
	for _, sp := range []*sharedPair{donor, replica} {
		if !sp.changed {
			t.Fatal("fixture: no write changed the media")
		}
		sp.verify(t)
	}
}

// fuzzCapacity is FuzzSharedImagePokes' device size.
const fuzzCapacity = 3<<12 + 1000

// fuzzOp encodes one FuzzSharedImagePokes operation: an 8-byte offset, a
// 2-byte length and a flags byte — bit 0 rewrites the bytes already there,
// bit 1 keeps the offset as is (else it is reduced modulo 4 KiB past the
// capacity), bit 2 writes the donor instead of the replica.
func fuzzOp(off int64, n uint16, flags byte) []byte {
	b := binary.LittleEndian.AppendUint64(nil, uint64(off))
	return append(binary.LittleEndian.AppendUint16(b, n), flags)
}

// FuzzSharedImagePokes decodes a sequence of pokes, each followed by a peek
// of the same range, and holds a donor and a replica sharing one image to a
// private reference device: same outcome, same bytes, image untouched, and
// the image still shared exactly while no write changed bytes.
func FuzzSharedImagePokes(f *testing.F) {
	f.Add(fuzzOp(4086, 20, 0))                             // a changing write
	f.Add(fuzzOp(100, 50, 1))                              // an equal rewrite
	f.Add(fuzzOp(fuzzCapacity-400, 400, 1))                // rewrites the last bytes
	f.Add(fuzzOp(math.MaxInt64-2, 8, 2))                   // wraps a naive bound
	f.Add(append(fuzzOp(0, 9000, 4), fuzzOp(10, 5, 5)...)) // donor, then a rewrite
	image := make([]byte, fuzzCapacity)
	for i := range image {
		image[i] = byte(i*7 + i>>8)
	}
	f.Fuzz(func(t *testing.T, ops []byte) {
		donor, replica := newSharedPairs(t, image)
		for i := 0; len(ops) >= 11 && i < 64; i, ops = i+1, ops[11:] {
			off := int64(binary.LittleEndian.Uint64(ops))
			n, flags := int(binary.LittleEndian.Uint16(ops[8:])), ops[10]
			if flags&2 == 0 {
				off = int64(uint64(off) % (fuzzCapacity + 4096))
			}
			sp := replica
			if flags&4 != 0 {
				sp = donor
			}
			p := make([]byte, n)
			if flags&1 == 0 || sp.ref.PeekInto(p, off) != nil {
				for j := range p {
					p[j] = byte(i + 3*j + 1)
				}
			}
			sp.poke(t, p, off)
			sp.peek(t, off, n)
		}
		donor.verify(t)
		replica.verify(t)
	})
}

func TestDeviceChannels(t *testing.T) {
	dev := newNand(t, 4096)
	// channels ≈ MaxIOPS × mediaLatency = 500e3 × 90µs = 45.
	if ch := dev.Channels(); ch < 20 || ch > 90 {
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
		if dev.Channels() != c.channels {
			t.Fatalf("%v: %d channels, want %d", c.spec.Tech, dev.Channels(), c.channels)
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
