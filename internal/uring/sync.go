package uring

import (
	"time"

	"sdm/internal/blockdev"
	"sdm/internal/simclock"
)

// SyncRing is the IO ring in booking form: SubmitSync books the IO against
// the device's channel model and returns its completion timestamp
// directly. Outstanding-IO throttling (§4.1, "total number of outstanding
// IOs ... that can be processed at a given time") holds: when the cap is
// reached, a new IO cannot start before the earliest in-flight IO's
// completion.
type SyncRing struct {
	dev      *blockdev.Device
	cfg      Config
	inflight simclock.TimeHeap
	// last bounds every in-flight completion from above, so that an admit
	// after all of them drops the heap at once.
	last  simclock.Time
	stats Stats
}

// NewSync creates a ring over dev, throttled at the device's recommended
// cap (dev.MaxOutstanding: set for Nand, 0 = unlimited otherwise).
func NewSync(dev *blockdev.Device, cfg Config) *SyncRing {
	if cfg.Mode == 0 {
		cfg.Mode = IRQ
	}
	return &SyncRing{dev: dev, cfg: cfg}
}

// Stats returns a snapshot of counters.
func (r *SyncRing) Stats() Stats { return r.stats }

func (r *SyncRing) cpuPerIO() time.Duration {
	per := cpuPerIOIRQ
	if r.cfg.Mode == Polling {
		per = cpuPerIOPolling
	}
	return per + cpuSubmitPerIO
}

// admit counts a submission, drops completed in-flight entries, applies the
// outstanding cap and returns the earliest virtual time the new IO may
// start.
func (r *SyncRing) admit(now simclock.Time) simclock.Time {
	r.stats.Submitted++
	start := now
	if r.last <= now {
		r.inflight = r.inflight[:0]
	}
	for r.inflight.Len() > 0 && r.inflight.Min() <= now {
		r.inflight.PopMin()
	}
	if limit := r.dev.MaxOutstanding; limit > 0 {
		for r.inflight.Len() >= limit {
			if t := r.inflight.PopMin(); t > start {
				start = t
			}
		}
	}
	return start
}

// complete accounts an admitted IO the device booked from start to done: a
// failed IO completes at start and leaves nothing in flight.
func (r *SyncRing) complete(start, done simclock.Time, err error) (simclock.Time, error) {
	r.stats.CPUTime += r.cpuPerIO()
	if err != nil {
		r.stats.Errors++
		return start, err
	}
	r.inflight.Push(done)
	r.last = max(r.last, done)
	if len(r.inflight) > r.stats.PeakInflight {
		r.stats.PeakInflight = len(r.inflight)
	}
	r.stats.Completed++
	return done, nil
}

// SubmitSync performs one IO issued at virtual time now and returns its
// completion time: the timing half (SubmitTimedRead or SubmitTimedWrite),
// then, if it succeeded, the data half on the flat media (Device.PeekInto
// into buf, or Device.PokeFrom of buf).
func (r *SyncRing) SubmitSync(now simclock.Time, buf []byte, off int64, write bool) (simclock.Time, error) {
	if write {
		done, err := r.SubmitTimedWrite(now, len(buf), off)
		if err != nil {
			return done, err
		}
		return done, r.dev.PokeFrom(buf, off)
	}
	done, err := r.SubmitTimedRead(now, len(buf), off)
	if err != nil {
		return done, err
	}
	return done, r.dev.PeekInto(buf, off)
}

// SubmitTimedRead books the timing of an n-byte read at off whose data the
// caller reads with Device.Row or Device.PeekInto: the throttle, the device
// channel booking and the ring and device stats of one read IO.
func (r *SyncRing) SubmitTimedRead(now simclock.Time, n int, off int64) (simclock.Time, error) {
	start := r.admit(now)
	done, err := r.dev.AccountRead(start, off, n, r.cfg.SGL)
	return r.complete(start, done, err)
}

// SubmitTimedWrite books the timing of an n-byte write at off whose data the
// caller moves with Device.PokeRow (a store's demotion spans and write-backs):
// the throttle, channel booking, wear and stats of one write IO.
func (r *SyncRing) SubmitTimedWrite(now simclock.Time, n int, off int64) (simclock.Time, error) {
	start := r.admit(now)
	done, err := r.dev.AccountWrite(start, off, n)
	return r.complete(start, done, err)
}
