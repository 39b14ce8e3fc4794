// Fleet-coordinated migration windows. N independent adapters migrate in
// lockstep under drift — the same rotation fires fleet-wide, every
// replica's controller reacts at the same evaluation boundary, and the
// fleet spends N× the migration bandwidth at the exact moment it is
// recovering, with every replica's foreground tail degraded at once. The
// Coordinator time-slices one shared migration budget instead: replica i
// owns every i-th window of a round-robin cycle, so at most one replica
// migrates at any instant (the fleet-wide migration rate stays at the
// single-host cap) and the fleet-wide wear budget is partitioned across
// the replicas' windows. Range-granular moves are small enough to make
// this staggering effective — a hot head migrates within a few windows.
//
// Determinism: the schedule is a pure function of (replica, virtual
// time) — the Coordinator holds no mutable state, so concurrently
// executing hosts read it race-free and fleet results stay bit-identical
// at any Config.HostWorkers.
package cluster

import (
	"fmt"
	"math"
	"time"

	"sdm/internal/adapt"
	"sdm/internal/serving"
	"sdm/internal/simclock"
)

// CoordConfig tunes a fleet migration Coordinator.
type CoordConfig struct {
	// Slot is each replica's migration window width (default 50ms). A
	// full rotation cycle is Slot × fleet size.
	Slot time.Duration
	// BandwidthBytesPerSec is the shared fleet migration cap: the rate
	// the active replica may issue at while it holds the window, and —
	// because windows never overlap — the bound on fleet-wide migration
	// bandwidth at any instant. 0 leaves each adapter's own cap in
	// force.
	BandwidthBytesPerSec float64
}

// validated fills defaults and rejects nonsense.
func (c CoordConfig) validated() (CoordConfig, error) {
	if c.Slot < 0 {
		return c, fmt.Errorf("cluster: coordinator Slot must be >= 0 (0 selects 50ms), got %v", c.Slot)
	}
	if c.Slot == 0 {
		c.Slot = 50 * time.Millisecond
	}
	if !(c.BandwidthBytesPerSec >= 0) || math.IsInf(c.BandwidthBytesPerSec, 0) {
		return c, fmt.Errorf("cluster: coordinator BandwidthBytesPerSec must be finite and >= 0, got %g", c.BandwidthBytesPerSec)
	}
	return c, nil
}

// Coordinator interleaves the fleet's migration windows: replica i of n
// owns [k·n·Slot + i·Slot, k·n·Slot + (i+1)·Slot) for every cycle k. It
// is immutable after construction (see the package comment on
// determinism).
type Coordinator struct {
	cfg CoordConfig
	n   int
	// perWindowWear is each window's demote budget: the cycle's budget
	// split evenly across the replicas' windows (0 = unbudgeted).
	perWindowWear int64
}

// NewCoordinator builds a window schedule for an n-replica fleet.
// wearPerCycle is the fleet-wide SM demote-write budget of one full
// rotation cycle (the §3 endurance budget, shared); 0 leaves windows
// unbudgeted.
func NewCoordinator(n int, cfg CoordConfig, wearPerCycle int64) (*Coordinator, error) {
	if n <= 0 {
		return nil, fmt.Errorf("cluster: coordinator over %d replicas", n)
	}
	cfg, err := cfg.validated()
	if err != nil {
		return nil, err
	}
	perWindow := wearPerCycle / int64(n)
	if wearPerCycle > 0 && perWindow < 1 {
		// A requested budget must never truncate to "unbudgeted"
		// (DemoteBudgetBytes <= 0): clamp to the tightest enforceable
		// budget instead — one chunk per window.
		perWindow = 1
	}
	return &Coordinator{cfg: cfg, n: n, perWindowWear: perWindow}, nil
}

// WindowFor returns replica host's migration window containing t, or the
// next one when t falls inside another replica's slot. It is a pure
// function of its arguments — safe to call concurrently from every host
// goroutine.
func (c *Coordinator) WindowFor(host int, t simclock.Time) adapt.Window {
	slot := simclock.Time(c.cfg.Slot)
	cycle := slot * simclock.Time(c.n)
	phase := slot * simclock.Time(host)
	// The cycle index whose window for this host is the first not yet
	// closed at t.
	k := simclock.Time(0)
	if t >= phase {
		k = (t - phase) / cycle
		if t >= phase+k*cycle+slot {
			k++
		}
	}
	open := phase + k*cycle
	return adapt.Window{
		Open:                 open,
		Close:                open + slot,
		BandwidthBytesPerSec: c.cfg.BandwidthBytesPerSec,
		DemoteBudgetBytes:    c.perWindowWear,
	}
}

// AttachCoordinated is AttachAdaptive plus fleet coordination: it builds
// one adapter per SDM-backed host and installs the coordinator's
// staggered window schedule on each, so replicas take turns migrating
// under one shared bandwidth cap and one shared wear budget instead of
// migrating in lockstep. When acfg.WearDaysPerSecond is set, the
// per-cycle wear budget is derived from the first SDM host's device
// endurance (replicas are identical) —
// the same §3 DWPD model the ungoverned adapter uses, shared across the
// fleet rather than multiplied by it.
func AttachCoordinated(hosts []*serving.Host, acfg adapt.Config, ccfg CoordConfig) ([]*adapt.Adapter, *Coordinator, error) {
	adapters, err := AttachAdaptive(hosts, acfg)
	if err != nil {
		return nil, nil, err
	}
	ccfg, err = ccfg.validated()
	if err != nil {
		return nil, nil, err
	}
	var wearPerCycle int64
	if acfg.WearDaysPerSecond > 0 {
		for _, h := range hosts {
			if s := h.Store(); s != nil {
				cycleSeconds := ccfg.Slot.Seconds() * float64(len(hosts))
				wearPerCycle = int64(s.Wear().DailyWriteBudgetBytes() *
					acfg.WearDaysPerSecond * cycleSeconds)
				if wearPerCycle < 1 {
					// Wear was requested: never let the derivation
					// truncate to "unbudgeted".
					wearPerCycle = 1
				}
				break
			}
		}
	}
	coord, err := NewCoordinator(len(hosts), ccfg, wearPerCycle)
	if err != nil {
		return nil, nil, err
	}
	for i, a := range adapters {
		if a == nil {
			continue
		}
		host := i
		a.SetWindows(func(t simclock.Time) adapt.Window {
			return coord.WindowFor(host, t)
		})
	}
	return adapters, coord, nil
}
