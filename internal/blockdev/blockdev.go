// Package blockdev simulates the Storage Class Memory devices of the
// paper's Table 1 (§3): PCIe Nand Flash, PCIe 3DXP (Optane SSD), PCIe ZSSD,
// DIMM 3DXP and CXL 3DXP.
//
// The simulator is "virtual time, real data", and every IO is two halves.
// The data half moves or lends the real bytes of the media (so the
// functional layer above — caches, dequantization, pooling — operates on
// them): Row / PokeRow by (stripe, row), PeekInto / PokeFrom by byte offset.
// The timing half, AccountRead / AccountWrite, books the access in a
// queueing model in virtual time: the caller passes the instant it issues
// an IO and gets the completion instant back (after the load, a store books
// it only through its ring, package uring). A device's media is a private
// flat image in memory (New) or a read-only load image that reads the
// caller's loaded tables in place (NewLoaded); a load image is addressed by
// row, and becomes a flat image on the first write that changes a row or on
// any access by offset.
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
// and flat (New: writes land in place) or a load image (NewLoaded): stripes
// of loaded tables read in place, zeros elsewhere. A load image copies on
// change: the first PokeRow that changes a row's bytes gives the device a
// private flat copy of the whole media (Capacity bytes), while rewriting a
// row with its own bytes copies nothing. The load image never changes
// observable behaviour.
type Device struct {
	spec TechSpec
	rng  *xrand.RNG
	// data is the flat media, nil while the load image serves it.
	data     []byte
	capacity int64
	// stripes is the load image (nil for New): sorted by Off, disjoint, and
	// never written — devices loaded with the same tables share them.
	stripes []Stripe
	// channels holds the channels' next-free instants as a binary min-heap:
	// which channel serves an IO is never observable, only their multiset.
	channels []simclock.Time
	stats    Stats
	closed   bool
	// MaxOutstanding caps concurrently queued IOs; 0 means unlimited.
	// The paper limits outstanding requests to Nand devices to smooth
	// bursts (§4.1 Tuning API); enforcement happens in package uring,
	// this field carries the device's recommended cap.
	MaxOutstanding int
}

// Stripe is one loaded table's share of a load image: Rows rows of RowBytes
// bytes from device offset Off on, row r holding Src's row r·Stride+Phase —
// a table striped across Stride devices, this device taking every row
// congruent to Phase.
type Stripe struct {
	Off           int64
	Src           []byte
	RowBytes      int
	Stride, Phase int64
	Rows          int64
}

// end returns the device offset just past the stripe.
func (s *Stripe) end() int64 { return s.Off + s.Rows*int64(s.RowBytes) }

// row returns the stripe's row r in Src.
func (s *Stripe) row(r int64) []byte {
	rb := int64(s.RowBytes)
	at := (r*s.Stride + s.Phase) * rb
	return s.Src[at : at+rb : at+rb]
}

// New creates a device of the given technology with capacity bytes of
// private backing store (allocated eagerly; scale capacities to the
// experiment). The clock parameter is ignored (see simclock.Clock).
func New(spec TechSpec, capacity int64, _ *simclock.Clock, seed uint64) *Device {
	nch := int(spec.MaxIOPS * spec.MediaLatency.Seconds())
	if nch < 1 {
		nch = 1
	}
	d := &Device{
		spec:     spec,
		rng:      xrand.New(seed),
		data:     make([]byte, capacity),
		capacity: capacity,
		channels: make([]simclock.Time, nch),
	}
	if spec.Tech == NandFlash || spec.Tech == ZSSD {
		// §4.1: "with Nand Flash, we need to smooth out the bursts by
		// limiting the maximum outstanding requests to the SSD".
		d.MaxOutstanding = 2 * nch
	}
	return d
}

// NewLoaded creates a device of capacity bytes whose media is the load image
// stripes (zeros outside them) and allocates none of it. The device keeps
// stripes and reads their Src in place: neither may change while it lives,
// and any number of devices may share them. Timing state, counters and the
// RNG are the device's own. Stripes must be sorted by Off, disjoint, inside
// the capacity and inside their Src.
func NewLoaded(spec TechSpec, capacity int64, stripes []Stripe, seed uint64) (*Device, error) {
	end := int64(0)
	for i := range stripes {
		s := &stripes[i]
		last := (s.Rows-1)*s.Stride + s.Phase
		if s.Off < end || s.RowBytes <= 0 || s.Rows < 0 || s.Stride <= 0 || s.Phase < 0 ||
			s.end() > capacity || s.Rows > 0 && (last+1)*int64(s.RowBytes) > int64(len(s.Src)) {
			return nil, fmt.Errorf("%w: load stripe %d: %d rows of %d bytes at %d (stride %d, phase %d, %d source bytes, cap %d)",
				ErrOutOfRange, i, s.Rows, s.RowBytes, s.Off, s.Stride, s.Phase, len(s.Src), capacity)
		}
		end = s.end()
	}
	d := New(spec, 0, nil, seed)
	d.data, d.capacity, d.stripes = nil, capacity, stripes
	return d, nil
}

// Spec returns the device's technology parameters.
func (d *Device) Spec() TechSpec { return d.spec }

// Capacity returns the device capacity in bytes.
func (d *Device) Capacity() int64 { return d.capacity }

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
	if off < 0 || n < 0 || off > d.capacity-int64(n) {
		return fmt.Errorf("%w: off=%d len=%d cap=%d", ErrOutOfRange, off, n, d.capacity)
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

// PeekInto copies [off, off+len(p)) into p without touching the timing
// model or the counters — the data half of a read over flat media; pair it
// with AccountRead for the timing half. A load image is materialized first,
// so PeekInto writes the device's state there; a store reads its rows with
// Row instead, which never does.
func (d *Device) PeekInto(p []byte, off int64) error {
	if err := d.check(off, len(p)); err != nil {
		return err
	}
	if d.data == nil {
		d.materialize()
	}
	copy(p, d.data[off:])
	return nil
}

// materialize gives a load image's device its private flat media: zeros
// with each stripe's rows copied in.
func (d *Device) materialize() {
	d.data = make([]byte, d.capacity)
	for i := range d.stripes {
		s := &d.stripes[i]
		for r := int64(0); r < s.Rows; r++ {
			copy(d.data[s.Off+r*int64(s.RowBytes):], s.row(r))
		}
	}
}

// Row lends row r of load stripe k, addressed without a search: the media's
// own RowBytes bytes at Off + r·RowBytes, in the loaded table while the load
// image serves them and in the flat media once materialized. It is the
// copy-free read, for a reader that is done with the bytes before the
// device is next written; never write through it. It fails with
// ErrOutOfRange outside the stripes and ErrClosed on a closed device, never
// writes the device's state and is safe for concurrent readers.
func (d *Device) Row(k int, r int64) ([]byte, error) {
	if d.closed {
		return nil, ErrClosed
	}
	if k < 0 || k >= len(d.stripes) || r < 0 || r >= d.stripes[k].Rows {
		return nil, fmt.Errorf("%w: stripe %d row %d", ErrOutOfRange, k, r)
	}
	s := &d.stripes[k]
	if d.data == nil {
		return s.row(r), nil
	}
	off := s.Off + r*int64(s.RowBytes)
	return d.data[off : off+int64(s.RowBytes) : off+int64(s.RowBytes)], nil
}

// AccountRead books the timing and counters of an n-byte read at off
// without copying data: the timing half of a read whose bytes come from
// PeekInto or Row. Only the offset and the length reach the timing model,
// so the two halves may run in either order.
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

// PokeFrom copies p onto the media at off without touching the timing
// model or the counters — the data half of a write over flat media and the
// mirror of PeekInto; pair it with AccountWrite for the timing half. A load
// image is materialized first, so no loaded table is written.
func (d *Device) PokeFrom(p []byte, off int64) error {
	if err := d.check(off, len(p)); err != nil {
		return err
	}
	if d.data == nil {
		d.materialize()
	}
	copy(d.data[off:], p)
	return nil
}

// PokeRow writes p as row r of load stripe k, addressed like Row: p must be
// one row long. It copies on change: on a load image a write of the row's
// own bytes copies nothing, and the first one that changes a byte
// materializes the media once.
func (d *Device) PokeRow(k int, r int64, p []byte) error {
	row, err := d.Row(k, r)
	if err != nil {
		return err
	}
	if len(p) != len(row) {
		return fmt.Errorf("%w: %d bytes into a %d-byte row", ErrOutOfRange, len(p), len(row))
	}
	if d.data == nil {
		if bytes.Equal(row, p) {
			return nil
		}
		d.materialize()
		row, _ = d.Row(k, r)
	}
	copy(row, p)
	return nil
}

// AccountWrite books the timing, counters, endurance wear and RNG draws of
// an n-byte write at off without moving data — the write-side counterpart
// of AccountRead, for bytes PokeFrom or PokeRow put on the media, or a load
// image already holds (a store's load; its later writes go via its ring).
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
