// Package simclock defines virtual time for the device, host and fleet
// simulators. All latency in this reproduction is virtual, and there is
// one model of it: booking. Virtual time is a value passed in and
// returned — a caller hands a resource the instant it issues work (now
// Time), the resource books the work against its own next-free instants
// (device channels, ring and throttle in-flight sets, host cores, the
// accelerator) and returns the completion instant. There is no event
// queue and no global "now": nothing advances a clock, so a run is a pure
// function of its inputs and seeds, which is what keeps results
// deterministic at any worker count while preserving the queueing
// behaviour (loaded-latency curves, overlap of user- and item-side
// embedding work per Eq. 3/4) the paper's results depend on.
package simclock

import "time"

// Time is a virtual timestamp measured as a duration since simulation start.
type Time time.Duration

// Seconds returns the timestamp in seconds.
func (t Time) Seconds() float64 { return time.Duration(t).Seconds() }

// Micros returns the timestamp in microseconds.
func (t Time) Micros() float64 { return float64(time.Duration(t)) / float64(time.Microsecond) }

// Duration converts to time.Duration.
func (t Time) Duration() time.Duration { return time.Duration(t) }

// Clock is an empty placeholder, not a clock. The frozen benchmark driver
// under bench/ declares one and passes its address to blockdev.New,
// core.OpenReplica and serving.NewHost, so the type and those parameters
// (ignored by every callee) stay until a benchmark-only PR stops passing
// it (ROADMAP item 1(c)(iii)); the PR after that deletes both.
type Clock struct{}
