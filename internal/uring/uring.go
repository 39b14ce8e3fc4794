// Package uring simulates the io_uring-based fast IO path of §4.1: a
// submission/completion ring over an SM block device with outstanding-IO
// throttling at the device's recommended cap, SGL sub-block reads
// (§4.1.1), and IRQ- vs polling-based completion processing with a per-IO
// CPU cost model (§A.1 reports ~50% better IOPS/core with polling).
package uring

import "time"

// CompletionMode selects how completions are reaped.
type CompletionMode int

// Completion modes.
const (
	// IRQ processes completions from interrupts; cheaper at low rates.
	IRQ CompletionMode = iota + 1
	// Polling busy-polls the completion queue, removing IRQ overhead;
	// §A.1 observes ~50% improvement in IOPS/core at high rates.
	Polling
)

// Per-IO CPU cost of the NVMe software stack. The 1.5× ratio reproduces the
// paper's "50% improvement on IOPS/Core when enabling polling".
const (
	cpuPerIOIRQ     = 1500 * time.Nanosecond
	cpuPerIOPolling = 1000 * time.Nanosecond
	// Batched submission amortizes a fixed syscall cost over the SQEs
	// submitted per syscall-equivalent (16).
	cpuSubmitPerIO = 500 * time.Nanosecond / 16
)

// Config tunes a SyncRing. The zero value means: IRQ completions, SGL
// disabled (full-block reads).
type Config struct {
	// Mode selects IRQ or Polling completion processing.
	Mode CompletionMode
	// SGL enables sub-block reads (§4.1.1): only requested bytes cross
	// the bus and the extra host memcpy is avoided.
	SGL bool
}

// Stats aggregates ring counters.
type Stats struct {
	Submitted    uint64
	Completed    uint64
	Errors       uint64
	PeakInflight int
	// PeakQueued stays 0: an IO over the cap is booked later, never held
	// in a software queue. Kept because bench/ reads it.
	PeakQueued int
	// CPUTime is the virtual CPU time consumed by the IO stack; divide
	// completions by it for IOPS/core.
	CPUTime time.Duration
}

// IOPSPerCore returns completed IOs per second of IO-stack CPU time.
func (s Stats) IOPSPerCore() float64 {
	if s.CPUTime <= 0 {
		return 0
	}
	return float64(s.Completed) / s.CPUTime.Seconds()
}
