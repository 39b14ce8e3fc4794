package main

import (
	"runtime"
	"syscall"
	"time"
)

// now is the benchmark's only wall-clock read: every host-time metric is a
// difference of two of its values.
func now() time.Time {
	return time.Now() //sdm:allow wallclock benchmark measures the simulator's own host time
}

// since returns the host microseconds elapsed from t0.
func since(t0 time.Time) float64 {
	return float64(now().Sub(t0).Nanoseconds()) / 1e3
}

// nproc is the number of goroutines the benchmark lets do work at once:
// Fleet HostWorkers and, where a workload fans a query out, the store's
// engine Parallelism.
func nproc() int { return runtime.GOMAXPROCS(0) }

// cpuMicros returns the process's user+system CPU time so far.
func cpuMicros() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec)*1e6 + float64(t.Usec) }
	return tv(ru.Utime) + tv(ru.Stime)
}

// totalAlloc returns the cumulative bytes the process has allocated.
func totalAlloc() uint64 {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.TotalAlloc
}

// liveHeapMB returns the heap bytes still reachable after a collection.
func liveHeapMB() float64 {
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return float64(m.HeapAlloc) / (1 << 20)
}
