package uring

import (
	"errors"
	"slices"
	"testing"
	"time"

	"sdm/internal/blockdev"
	"sdm/internal/simclock"
)

// newNandRing builds a ring over a Nand device; maxOutstanding > 0 overrides
// the device's recommended cap.
func newNandRing(cfg Config, maxOutstanding int) *SyncRing {
	dev := blockdev.New(blockdev.Spec(blockdev.NandFlash), 1<<22, nil, 1)
	if maxOutstanding > 0 {
		dev.MaxOutstanding = maxOutstanding
	}
	return NewSync(dev, cfg)
}

func TestRingCompletesAll(t *testing.T) {
	r := newNandRing(Config{}, 0)
	const n = 500
	buf := make([]byte, 128)
	for i := 0; i < n; i++ {
		done, err := r.SubmitSync(0, buf, int64(i%100)*4096, false)
		if err != nil {
			t.Fatalf("IO %d: %v", i, err)
		}
		if done <= 0 {
			t.Fatalf("IO %d completed at %v", i, done)
		}
	}
	if s := r.Stats(); s.Submitted != n || s.Completed != n || s.Errors != 0 {
		t.Fatalf("stats %+v", s)
	}
}

// TestRingOutstandingCap submits a same-instant burst against a cap of M:
// the (M+1)-th IO starts at the earliest completion among the first M
// (Nand's 45 channels would otherwise run it at once), and exactly M are
// ever in flight.
func TestRingOutstandingCap(t *testing.T) {
	const m, n = 4, 100
	r := newNandRing(Config{}, m)
	buf := make([]byte, 64)
	done := make([]simclock.Time, n)
	for i := range done {
		var err error
		if done[i], err = r.SubmitSync(0, buf, int64(i)*4096, false); err != nil {
			t.Fatal(err)
		}
	}
	earliest := slices.Min(done[:m])
	// Service time is at least 0.9× the media latency (±10% jitter).
	minSvc := simclock.Time(blockdev.Spec(blockdev.NandFlash).MediaLatency) * 9 / 10
	if done[m] < earliest+minSvc {
		t.Fatalf("IO %d completed at %v: it started before a slot freed at %v", m, done[m], earliest)
	}
	s := r.Stats()
	if s.Completed != n {
		t.Fatalf("completed %d", s.Completed)
	}
	if s.PeakInflight != m {
		t.Fatalf("peak inflight %d, want the cap %d", s.PeakInflight, m)
	}
}

// TestRingErrorPath: a failed IO surfaces its error, counts in Errors and
// leaves nothing in flight, whether the offset or the device is at fault.
func TestRingErrorPath(t *testing.T) {
	r := newNandRing(Config{}, 1)
	buf := make([]byte, 128)
	if _, err := r.SubmitSync(0, buf, 1<<30, false); !errors.Is(err, blockdev.ErrOutOfRange) {
		t.Fatalf("out-of-range IO: err %v", err)
	}
	if _, err := r.SubmitTimedRead(0, len(buf), 1<<30); !errors.Is(err, blockdev.ErrOutOfRange) {
		t.Fatalf("out-of-range timed read: err %v", err)
	}
	// With a cap of 1, an errored IO left in flight would delay this one.
	done, err := r.SubmitSync(0, buf, 0, false)
	if err != nil {
		t.Fatal(err)
	}
	if limit := simclock.Time(20 * blockdev.Spec(blockdev.NandFlash).MediaLatency); done > limit {
		t.Fatalf("IO after errors completed at %v: an errored IO held the slot", done)
	}
	r.dev.Close()
	if _, err := r.SubmitSync(done, buf, 0, false); !errors.Is(err, blockdev.ErrClosed) {
		t.Fatalf("closed device: err %v", err)
	}
	if s := r.Stats(); s.Submitted != 4 || s.Errors != 3 || s.Completed != 1 || s.PeakInflight != 1 {
		t.Fatalf("stats %+v", s)
	}
}

func TestPollingImprovesIOPSPerCore(t *testing.T) {
	run := func(mode CompletionMode) float64 {
		r := newNandRing(Config{Mode: mode}, 0)
		buf := make([]byte, 128)
		for i := 0; i < 1000; i++ {
			if _, err := r.SubmitSync(0, buf, int64(i%100)*4096, false); err != nil {
				t.Fatal(err)
			}
		}
		return r.Stats().IOPSPerCore()
	}
	irq, poll := run(IRQ), run(Polling)
	gain := poll/irq - 1
	// §A.1: "50% improvement on IOPS/Core when enabling polling".
	if gain < 0.3 || gain > 0.7 {
		t.Fatalf("polling gain %.0f%%, want ~50%%", gain*100)
	}
}

func TestRingSGLSavesBus(t *testing.T) {
	r := newNandRing(Config{SGL: true}, 0)
	buf := make([]byte, 128)
	for i := 0; i < 100; i++ {
		if _, err := r.SubmitSync(0, buf, int64(i)*4096, false); err != nil {
			t.Fatal(err)
		}
	}
	if sav := r.dev.Stats().BusSavings(); sav < 0.9 {
		t.Fatalf("SGL bus savings %g", sav)
	}
}

func TestSyncRingBasic(t *testing.T) {
	dev := blockdev.New(blockdev.Spec(blockdev.OptaneSSD), 1<<20, nil, 1)
	r := NewSync(dev, Config{SGL: true})
	buf := make([]byte, 128)
	done, err := r.SubmitSync(0, buf, 0, false)
	if err != nil {
		t.Fatal(err)
	}
	if done <= 0 {
		t.Fatal("completion time must advance")
	}
	if r.Stats().Completed != 1 {
		t.Fatalf("stats %+v", r.Stats())
	}
}

func TestSyncRingThrottle(t *testing.T) {
	dev := blockdev.New(blockdev.Spec(blockdev.NandFlash), 1<<24, nil, 1)
	dev.MaxOutstanding = 2
	capped := NewSync(dev, Config{})
	buf := make([]byte, 128)
	var doneCapped []simclock.Time
	for i := 0; i < 50; i++ {
		d, err := capped.SubmitSync(0, buf, int64(i)*4096, false)
		if err != nil {
			t.Fatal(err)
		}
		doneCapped = append(doneCapped, d)
	}
	// With cap 2 and all submitted at t=0, completion times must spread
	// out far beyond the device's natural parallelism.
	last := doneCapped[len(doneCapped)-1]
	med := blockdev.Spec(blockdev.NandFlash).MediaLatency
	if last < simclock.Time(20*med) {
		t.Fatalf("throttled burst finished too fast: %v", last.Duration())
	}
}

func TestSyncRingWrite(t *testing.T) {
	dev := blockdev.New(blockdev.Spec(blockdev.NandFlash), 1<<20, nil, 1)
	r := NewSync(dev, Config{})
	src := []byte{9, 8, 7}
	if _, err := r.SubmitSync(0, src, 100, true); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 3)
	if _, err := r.SubmitSync(0, buf, 100, false); err != nil {
		t.Fatal(err)
	}
	if buf[0] != 9 || buf[1] != 8 || buf[2] != 7 {
		t.Fatalf("write/read mismatch %v", buf)
	}
}

func TestMmapPageCache(t *testing.T) {
	dev := blockdev.New(blockdev.Spec(blockdev.NandFlash), 1<<20, nil, 1)
	m := NewMmap(dev, 64<<10) // 16 pages
	buf := make([]byte, 128)
	// First access faults; second hits.
	if _, err := m.Read(0, buf, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Read(0, buf, 64); err != nil {
		t.Fatal(err)
	}
	// One fault in two accesses: a 50 % page-cache hit rate.
	s := m.Stats()
	if s.PageFaults != 1 || s.Accesses != 2 {
		t.Fatalf("stats %+v", s)
	}
}

func TestMmapEviction(t *testing.T) {
	dev := blockdev.New(blockdev.Spec(blockdev.NandFlash), 1<<20, nil, 1)
	m := NewMmap(dev, 8<<10) // 2 pages
	buf := make([]byte, 16)
	for i := int64(0); i < 10; i++ {
		if _, err := m.Read(0, buf, i*4096); err != nil {
			t.Fatal(err)
		}
	}
	s := m.Stats()
	if s.Evictions == 0 {
		t.Fatal("page cache over budget must evict")
	}
	if s.ResidentBytes > 8<<10 {
		t.Fatalf("resident %d exceeds FM budget", s.ResidentBytes)
	}
}

func TestMmapSlowerThanDirect(t *testing.T) {
	// §4.1: mmap results in ~3× higher access latency for small random
	// reads with no spatial locality (cold pages every time).
	spec := blockdev.Spec(blockdev.NandFlash)
	devA := blockdev.New(spec, 1<<24, nil, 1)
	devB := blockdev.New(spec, 1<<24, nil, 1)
	direct := NewSync(devA, Config{SGL: true})
	m := NewMmap(devB, 16<<10)

	buf := make([]byte, 128)
	var sumDirect, sumMmap time.Duration
	const n = 200
	for i := 0; i < n; i++ {
		at := simclock.Time(i) * simclock.Time(time.Millisecond)
		off := int64(i) * 4096 * 3 // distinct cold pages
		d1, err := direct.SubmitSync(at, buf, off, false)
		if err != nil {
			t.Fatal(err)
		}
		sumDirect += (d1 - at).Duration()
		d2, err := m.Read(at, buf, off)
		if err != nil {
			t.Fatal(err)
		}
		sumMmap += (d2 - at).Duration()
	}
	ratio := float64(sumMmap) / float64(sumDirect)
	if ratio < 2 || ratio > 5 {
		t.Fatalf("mmap/direct latency ratio %.1f, want ~3x", ratio)
	}
}
