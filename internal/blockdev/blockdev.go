// Package blockdev simulates the Storage Class Memory devices of the
// paper's Table 1 (§3): PCIe Nand Flash, PCIe 3DXP (Optane SSD), PCIe ZSSD,
// DIMM 3DXP and CXL 3DXP.
//
// The simulator is "virtual time, real data": device contents are held in
// memory and every access moves or lends the real bytes (so the functional
// layer above — caches, dequantization, pooling — operates on them), while
// access latency comes from a queueing model booked in virtual time: the
// caller passes the instant it issues an IO and gets the completion
// instant back. The two halves can be driven apart: PeekInto / PokeFrom
// move the bytes of a read / write (View lends a read's bytes in place),
// AccountRead / AccountWrite book the timing and the counters.
//
// Each device exposes a fixed number of internal channels
// (dies), each holding its next-free instant; an IO occupies a channel for
// the technology's media latency, so the sustainable IOPS ceiling is
// channels/mediaLatency and latency rises as the submitted load approaches
// that ceiling — reproducing the shape of the paper's Fig. 3 (Optane: flat
// ~10 µs then a sharp knee near 4 MIOPS; Nand: ~100 µs with an earlier
// knee near 0.5 MIOPS and occasional long tails from internal
// housekeeping).
package blockdev

import (
	"bytes"
	"errors"
	"fmt"
	"time"

	"sdm/internal/simclock"
	"sdm/internal/xrand"
)

// Technology identifies an SM technology from Table 1.
type Technology int

// Technologies from the paper's Table 1.
const (
	NandFlash Technology = iota + 1
	OptaneSSD
	ZSSD
	DIMM3DXP
	CXL3DXP
)

// String returns the technology name.
func (t Technology) String() string {
	switch t {
	case NandFlash:
		return "PCIe Nand Flash"
	case OptaneSSD:
		return "PCIe 3DXP (Optane)"
	case ZSSD:
		return "PCIe ZSSD"
	case DIMM3DXP:
		return "DIMM 3DXP (Optane)"
	case CXL3DXP:
		return "CXL 3DXP"
	default:
		return fmt.Sprintf("Technology(%d)", int(t))
	}
}

// TechSpec captures the Table 1 parameters for one SM technology.
type TechSpec struct {
	Tech Technology
	// MaxIOPS is the random-read IOPS ceiling of one device.
	MaxIOPS float64
	// MediaLatency is the unloaded access latency for one IO.
	MediaLatency time.Duration
	// AccessGranularity is the device's native access granularity in
	// bytes: reads below this size still cost a full-granularity media
	// access (read amplification), though SGL sub-block reads can avoid
	// transferring the unwanted bytes over the bus (§4.1.1).
	AccessGranularity int
	// EnduranceDWPD is the physical drive-writes-per-day rating used by
	// the model-update interval equation of §3.
	EnduranceDWPD float64
	// CostPerGBRelDRAM is the relative cost per GB vs DDR4 DRAM.
	CostPerGBRelDRAM float64
	// Sourcing is the number of vendors offering the technology.
	Sourcing int
	// BusBandwidth is the host-link bandwidth (PCIe/CXL/DIMM) in bytes/s.
	BusBandwidth float64
	// TailProb/TailFactor model occasional long-tail accesses (Nand GC,
	// §5.1's "occasional long tail latency of Nand Flash").
	TailProb   float64
	TailFactor float64
	// WriteLatency is the program latency for one granularity write.
	WriteLatency time.Duration
}

// Spec returns the catalog entry for a technology, mirroring Table 1.
// Values are from the paper's Table 1 and Fig. 3 (public information).
func Spec(t Technology) TechSpec {
	switch t {
	case NandFlash:
		return TechSpec{
			Tech: NandFlash, MaxIOPS: 500e3, MediaLatency: 90 * time.Microsecond,
			AccessGranularity: 4096, EnduranceDWPD: 5, CostPerGBRelDRAM: 1.0 / 30,
			Sourcing: 3, BusBandwidth: 3.2e9, TailProb: 0.01, TailFactor: 8,
			WriteLatency: 600 * time.Microsecond,
		}
	case OptaneSSD:
		return TechSpec{
			Tech: OptaneSSD, MaxIOPS: 4e6, MediaLatency: 10 * time.Microsecond,
			AccessGranularity: 512, EnduranceDWPD: 100, CostPerGBRelDRAM: 1.0 / 5,
			Sourcing: 1, BusBandwidth: 3.2e9, TailProb: 0.001, TailFactor: 3,
			WriteLatency: 12 * time.Microsecond,
		}
	case ZSSD:
		return TechSpec{
			Tech: ZSSD, MaxIOPS: 1e6, MediaLatency: 60 * time.Microsecond,
			AccessGranularity: 4096, EnduranceDWPD: 5, CostPerGBRelDRAM: 1.0 / 10,
			Sourcing: 1, BusBandwidth: 3.2e9, TailProb: 0.005, TailFactor: 6,
			WriteLatency: 300 * time.Microsecond,
		}
	case DIMM3DXP:
		return TechSpec{
			Tech: DIMM3DXP, MaxIOPS: 20e6, MediaLatency: 300 * time.Nanosecond,
			AccessGranularity: 64, EnduranceDWPD: 300, CostPerGBRelDRAM: 1.0 / 3,
			Sourcing: 1, BusBandwidth: 20e9, WriteLatency: 1 * time.Microsecond,
		}
	case CXL3DXP:
		return TechSpec{
			Tech: CXL3DXP, MaxIOPS: 12e6, MediaLatency: 500 * time.Nanosecond,
			AccessGranularity: 128, EnduranceDWPD: 300, CostPerGBRelDRAM: 1.0 / 3,
			Sourcing: 1, BusBandwidth: 16e9, WriteLatency: 1 * time.Microsecond,
		}
	default:
		return TechSpec{Tech: t}
	}
}

// Catalog returns all Table 1 technologies in presentation order.
func Catalog() []TechSpec {
	return []TechSpec{
		Spec(NandFlash), Spec(OptaneSSD), Spec(ZSSD), Spec(DIMM3DXP), Spec(CXL3DXP),
	}
}

// Errors returned by Device accesses.
var (
	ErrOutOfRange = errors.New("blockdev: access out of device range")
	ErrClosed     = errors.New("blockdev: device closed")
)

// Stats aggregates device counters.
type Stats struct {
	Reads          uint64 // completed read IOs
	Writes         uint64 // completed write IOs
	MediaBytes     uint64 // bytes read at media granularity (incl. amplification)
	BusBytes       uint64 // read bytes actually transferred over the host link
	BusWriteBytes  uint64 // write bytes transferred over the host link
	RequestedBytes uint64 // bytes the host asked for
	TailEvents     uint64 // long-tail accesses
	BytesWritten   uint64 // lifetime writes for endurance accounting
}

// ReadAmplification returns MediaBytes/RequestedBytes (1.0 = none).
func (s Stats) ReadAmplification() float64 {
	if s.RequestedBytes == 0 {
		return 0
	}
	return float64(s.MediaBytes) / float64(s.RequestedBytes)
}

// BusSavings returns the fraction of media bytes that SGL sub-block reads
// avoided transferring over the bus.
func (s Stats) BusSavings() float64 {
	if s.MediaBytes == 0 {
		return 0
	}
	return 1 - float64(s.BusBytes)/float64(s.MediaBytes)
}

// Device simulates one SM device instance. Its media is either private
// (New: writes land in place) or a read-only image shared with other
// devices (NewShared, or the donor after ShareImage). A shared device copies
// on change: the first write that changes the image's bytes gives the device
// a private copy of the whole image, while rewriting the bytes already there
// copies nothing. Sharing never changes observable behaviour.
type Device struct {
	spec TechSpec
	rng  *xrand.RNG
	data []byte
	// channels holds the channels' next-free instants as a binary min-heap:
	// which channel serves an IO is never observable, only their multiset.
	channels []simclock.Time
	stats    Stats
	closed   bool
	// shared marks data as a read-only image shared with other devices.
	shared bool
	// MaxOutstanding caps concurrently queued IOs; 0 means unlimited.
	// The paper limits outstanding requests to Nand devices to smooth
	// bursts (§4.1 Tuning API); enforcement happens in package uring,
	// this field carries the device's recommended cap.
	MaxOutstanding int
}

// New creates a device of the given technology with capacity bytes of
// backing store (allocated eagerly; scale capacities to the experiment).
// The clock parameter is ignored (see simclock.Clock).
func New(spec TechSpec, capacity int64, _ *simclock.Clock, seed uint64) *Device {
	nch := int(spec.MaxIOPS * spec.MediaLatency.Seconds())
	if nch < 1 {
		nch = 1
	}
	d := &Device{
		spec:     spec,
		rng:      xrand.New(seed),
		data:     make([]byte, capacity),
		channels: make([]simclock.Time, nch),
	}
	if spec.Tech == NandFlash || spec.Tech == ZSSD {
		// §4.1: "with Nand Flash, we need to smooth out the bursts by
		// limiting the maximum outstanding requests to the SSD".
		d.MaxOutstanding = 2 * nch
	}
	return d
}

// NewShared creates a device whose media starts as a shared read-only
// image — typically another identically-loaded device's contents obtained
// via ShareImage. Timing state, counters and the RNG are the device's own;
// only the media bytes are shared, and the first write that changes them
// replaces them with a private copy (see Device). This removes the dominant
// allocation of building N replica hosts whose load phases write identical
// bytes, and keeps it removed while they rewrite those bytes.
func NewShared(spec TechSpec, image []byte, _ *simclock.Clock, seed uint64) *Device {
	d := New(spec, 0, nil, seed)
	d.data = image
	d.shared = true
	return d
}

// ShareImage marks the device's media as a shared read-only image and
// returns it for replica devices (NewShared). The device itself copies on
// change from then on, like its replicas, so no write reaches the returned
// image. Call it once per device; OpenReplica calls it on a loaded donor.
func (d *Device) ShareImage() []byte {
	d.shared = true
	return d.data
}

// Spec returns the device's technology parameters.
func (d *Device) Spec() TechSpec { return d.spec }

// Capacity returns the device capacity in bytes.
func (d *Device) Capacity() int64 { return int64(len(d.data)) }

// Stats returns a snapshot of the device counters.
func (d *Device) Stats() Stats { return d.stats }

// Close marks the device closed; subsequent accesses fail.
func (d *Device) Close() { d.closed = true }

// serviceOne books one media access on the earliest-free channel, starting
// no earlier than now, and returns its completion time.
func (d *Device) serviceOne(now simclock.Time, write bool) simclock.Time {
	start := max(now, d.channels[0])
	svc := d.spec.MediaLatency
	if write {
		svc = d.spec.WriteLatency
	}
	if d.spec.TailProb > 0 && d.rng.Float64() < d.spec.TailProb {
		svc = time.Duration(float64(svc) * d.spec.TailFactor)
		d.stats.TailEvents++
	}
	// ±10% service-time jitter.
	svc = time.Duration(float64(svc) * (0.9 + 0.2*d.rng.Float64()))
	done := start + simclock.Time(svc)
	// Replace the minimum in place: sift done down from the root.
	ch, i := d.channels, 0
	for {
		c := 2*i + 1
		if c+1 < len(ch) && ch[c+1] < ch[c] {
			c++
		}
		if c >= len(ch) || ch[c] >= done {
			break
		}
		ch[i] = ch[c]
		i = c
	}
	ch[i] = done
	return done
}

// busTime returns the link transfer time for n bytes.
func (d *Device) busTime(n int) time.Duration {
	if d.spec.BusBandwidth <= 0 {
		return 0
	}
	return time.Duration(float64(n) / d.spec.BusBandwidth * float64(time.Second))
}

// granules returns how many media accesses a [off, off+n) read costs.
func (d *Device) granules(off int64, n int) int {
	g := max(int64(d.spec.AccessGranularity), 1)
	return int((off+int64(n)-1)/g - off/g + 1)
}

// check validates an n-byte access at off. It compares off with cap-n: off+n
// can wrap past MaxInt64 and pass a naive bound.
func (d *Device) check(off int64, n int) error {
	if d.closed {
		return ErrClosed
	}
	if off < 0 || n < 0 || off > int64(len(d.data))-int64(n) {
		return fmt.Errorf("%w: off=%d len=%d cap=%d", ErrOutOfRange, off, n, len(d.data))
	}
	return nil
}

// alignedSpan returns the length of the media-granularity-aligned byte span
// covering [off, off+n).
func (d *Device) alignedSpan(off int64, n int) int {
	g := max(int64(d.spec.AccessGranularity), 1)
	return int((off+int64(n)+g-1)/g*g - off/g*g)
}

// book validates an n-byte access at off and books one media access per
// granule, all issued at now; it returns the last completion and the
// aligned span.
func (d *Device) book(now simclock.Time, off int64, n int, write bool) (simclock.Time, int, error) {
	if err := d.check(off, n); err != nil {
		return now, 0, err
	}
	done := now
	for i := d.granules(off, n); i > 0; i-- {
		done = max(done, d.serviceOne(now, write))
	}
	return done, d.alignedSpan(off, n), nil
}

// Read performs a block-granularity read: the whole aligned span covering
// [off, off+len(p)) is read at the media and transferred over the bus
// (classic read amplification). Data for the requested range is copied into
// p. It returns the virtual completion time.
func (d *Device) Read(now simclock.Time, p []byte, off int64) (simclock.Time, error) {
	return d.read(now, p, off, false)
}

// ReadSGL performs a sub-block read using the NVMe SGL bit-bucket technique
// of §4.1.1: the media access still covers the full aligned span, but only
// the requested bytes cross the bus, saving bus bandwidth and the extra
// host-side copy.
func (d *Device) ReadSGL(now simclock.Time, p []byte, off int64) (simclock.Time, error) {
	return d.read(now, p, off, true)
}

func (d *Device) read(now simclock.Time, p []byte, off int64, sgl bool) (simclock.Time, error) {
	if err := d.PeekInto(p, off); err != nil {
		return now, err
	}
	return d.AccountRead(now, off, len(p), sgl)
}

// PeekInto copies [off, off+len(p)) into p without touching the timing
// model or the counters — the data half of a read. Callers that split a
// read must pair it with AccountRead for the timing half. PeekInto is safe
// for concurrent use as long as no write is in flight.
func (d *Device) PeekInto(p []byte, off int64) error {
	if err := d.check(off, len(p)); err != nil {
		return err
	}
	copy(p, d.data[off:])
	return nil
}

// View is PeekInto without the copy: the media's own n bytes at off, checked
// like any access, for a reader that is done with them before the device is
// next written. A write may change a private device's bytes under the view;
// a shared image's view keeps the bytes it had (the write lands on a copy).
// Never write through a view.
func (d *Device) View(off int64, n int) ([]byte, error) {
	if err := d.check(off, n); err != nil {
		return nil, err
	}
	return d.data[off : off+int64(n) : off+int64(n)], nil
}

// AccountRead books the timing and counters of an n-byte read at off
// without copying data: the timing half of a read whose bytes were already
// obtained via PeekInto or View. Calling Read is equivalent to PeekInto
// followed by AccountRead, so deferred-timing callers observe bit-identical
// completion times, stats and RNG draws as inline callers.
func (d *Device) AccountRead(now simclock.Time, off int64, n int, sgl bool) (simclock.Time, error) {
	done, span, err := d.book(now, off, n, false)
	if err != nil {
		return now, err
	}
	d.stats.Reads++
	d.stats.MediaBytes += uint64(span)
	d.stats.RequestedBytes += uint64(n)
	bus := span
	if sgl {
		bus = n
	}
	d.stats.BusBytes += uint64(bus)
	return done + simclock.Time(d.busTime(bus)), nil
}

// Write writes p at off, modelling program latency and endurance wear: it
// is exactly PokeFrom followed by AccountWrite.
func (d *Device) Write(now simclock.Time, p []byte, off int64) (simclock.Time, error) {
	if err := d.PokeFrom(p, off); err != nil {
		return now, err
	}
	return d.AccountWrite(now, off, len(p))
}

// PokeFrom copies p onto the media at off without touching the timing
// model or the counters — the data half of a write and the mirror of
// PeekInto; pair it with AccountWrite for the timing half. On a shared image
// a write of the bytes already there is a no-op, and any other write works
// on a private copy of the whole image made first (copy on change), so the
// image is never written.
func (d *Device) PokeFrom(p []byte, off int64) error {
	if err := d.check(off, len(p)); err != nil {
		return err
	}
	dst := d.data[off : off+int64(len(p))]
	if d.shared {
		if bytes.Equal(dst, p) {
			return nil
		}
		d.data, d.shared = append([]byte(nil), d.data...), false
		dst = d.data[off : off+int64(len(p))]
	}
	copy(dst, p)
	return nil
}

// AccountWrite books the timing, counters, endurance wear and RNG draws of
// an n-byte write at off without moving data — the write-side counterpart
// of AccountRead, for bytes already on the media (poked, or held by a
// shared load image).
func (d *Device) AccountWrite(now simclock.Time, off int64, n int) (simclock.Time, error) {
	done, span, err := d.book(now, off, n, true)
	if err != nil {
		return now, err
	}
	d.stats.BusWriteBytes += uint64(n)
	d.stats.Writes++
	d.stats.BytesWritten += uint64(span)
	return done + simclock.Time(d.busTime(n)), nil
}

// RatedLifeYears is the drive-life horizon the DWPD rating assumes (the
// standard 5-year warranty window the §3 endurance equation uses).
const RatedLifeYears = 5

// RatedLifeBytes returns the total writes the endurance rating allows a
// device of the given capacity over its rated life: DWPD × capacity ×
// 365 × RatedLifeYears. 0 when the technology carries no DWPD rating.
func (s TechSpec) RatedLifeBytes(capacityBytes int64) int64 {
	if s.EnduranceDWPD <= 0 || capacityBytes <= 0 {
		return 0
	}
	return int64(s.EnduranceDWPD * float64(capacityBytes) * 365 * RatedLifeYears)
}

// UpdateInterval returns the minimum sustainable model-update interval in
// days implied by device endurance (§3):
//
//	UpdateInterval = 365 * ModelSize / (pDWPD * SMCapacity) / 365 days
//
// i.e. days between full-model writes such that lifetime writes stay within
// the DWPD rating over a 5-year (or ratingYears) life.
func UpdateInterval(modelBytes, smCapacityBytes int64, dwpd float64) time.Duration {
	if smCapacityBytes <= 0 || dwpd <= 0 {
		return 0
	}
	// Allowed writes per day = dwpd * capacity. One update writes
	// modelBytes. Minimum interval between updates:
	updatesPerDay := dwpd * float64(smCapacityBytes) / float64(modelBytes)
	if updatesPerDay <= 0 {
		return 0
	}
	return time.Duration(24 * float64(time.Hour) / updatesPerDay)
}
