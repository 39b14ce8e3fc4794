package blockdev

import (
	"bytes"
	"errors"
	"testing"
	"time"

	"sdm/internal/simclock"
)

func newNand(t *testing.T, capacity int64) (*Device, *simclock.Clock) {
	t.Helper()
	var clk simclock.Clock
	return New(Spec(NandFlash), capacity, &clk, 1), &clk
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
	for _, tech := range []Technology{NandFlash, OptaneSSD, ZSSD, DIMM3DXP, CXL3DXP, DRAM} {
		if tech.String() == "" {
			t.Errorf("empty name for %d", tech)
		}
	}
	if Technology(99).String() != "Technology(99)" {
		t.Error("unknown technology should render numerically")
	}
}

func TestWriteThenRead(t *testing.T) {
	dev, _ := newNand(t, 1<<20)
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
	whole, _ := newNand(t, 1<<20)
	split, _ := newNand(t, 1<<20)
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
	if whole.Stats() != split.Stats() || !bytes.Equal(whole.Peek(0, 1<<20), split.Peek(0, 1<<20)) {
		t.Fatalf("split write diverged from Write:\n%+v\n%+v", split.Stats(), whole.Stats())
	}

	image := whole.ShareImage()
	replica := NewShared(Spec(NandFlash), image, nil, 2)
	if err := replica.PokeFrom([]byte{1, 2, 3}, 0); err != nil {
		t.Fatal(err)
	}
	if image[0] != 0xab || replica.Peek(0, 1)[0] != 1 {
		t.Fatal("poke on a shared image must copy first")
	}
	if err := split.PokeFrom(src, 1<<20-100); !errors.Is(err, ErrOutOfRange) {
		t.Fatalf("want ErrOutOfRange, got %v", err)
	}
}

func TestReadOutOfRange(t *testing.T) {
	dev, _ := newNand(t, 4096)
	buf := make([]byte, 128)
	if _, err := dev.Read(0, buf, 4096-64); !errors.Is(err, ErrOutOfRange) {
		t.Fatalf("want ErrOutOfRange, got %v", err)
	}
	if _, err := dev.Read(0, buf, -1); !errors.Is(err, ErrOutOfRange) {
		t.Fatalf("negative offset: want ErrOutOfRange, got %v", err)
	}
}

func TestClosedDevice(t *testing.T) {
	dev, _ := newNand(t, 4096)
	dev.Close()
	if _, err := dev.Read(0, make([]byte, 8), 0); !errors.Is(err, ErrClosed) {
		t.Fatalf("want ErrClosed, got %v", err)
	}
	if _, err := dev.Write(0, make([]byte, 8), 0); !errors.Is(err, ErrClosed) {
		t.Fatalf("want ErrClosed, got %v", err)
	}
}

func TestReadAmplification(t *testing.T) {
	dev, _ := newNand(t, 1<<20)
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
	dev, _ := newNand(t, 1<<20)
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
	dev, _ := newNand(t, 1<<20)
	src := make([]byte, 256)
	for i := range src {
		src[i] = byte(i)
	}
	off := int64(4096 - 100) // straddles a block boundary
	if _, err := dev.Write(0, src, off); err != nil {
		t.Fatal(err)
	}
	dev.ResetStats()
	dst := make([]byte, 256)
	if _, err := dev.ReadSGL(0, dst, off); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(src, dst) {
		t.Fatal("straddling read corrupted data")
	}
	if s := dev.Stats(); s.MediaBytes != 8192 {
		t.Fatalf("straddling read should touch 2 blocks, media=%d", s.MediaBytes)
	}
}

func TestUnloadedLatencyNearMedia(t *testing.T) {
	dev, _ := newNand(t, 1<<20)
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
	dev, _ := newNand(t, 1<<24)
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
	var clk simclock.Clock
	dev := New(spec, 1<<24, &clk, 2)
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
		var clk simclock.Clock
		dev := New(Spec(tech), 1<<24, &clk, 3)
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
	dev, _ := newNand(t, 1<<24)
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
	dev, _ := newNand(t, 1<<20)
	if _, err := dev.Write(0, make([]byte, 100), 0); err != nil {
		t.Fatal(err)
	}
	s := dev.Stats()
	if s.BytesWritten != 4096 {
		t.Fatalf("endurance accounting %d, want full granule 4096", s.BytesWritten)
	}
	dev.ResetStats()
	if dev.Stats().BytesWritten != 4096 {
		t.Fatal("ResetStats must preserve endurance counter")
	}
}

func TestLoadedLatencyAnalytic(t *testing.T) {
	s := Spec(OptaneSSD)
	low := s.LoadedLatency(0.1 * s.MaxIOPS)
	mid := s.LoadedLatency(0.8 * s.MaxIOPS)
	high := s.LoadedLatency(0.99 * s.MaxIOPS)
	if !(low <= mid && mid < high) {
		t.Fatalf("loaded latency not increasing: %v %v %v", low, mid, high)
	}
	if low > s.MediaLatency*2 {
		t.Fatalf("low-load latency %v far above media %v", low, s.MediaLatency)
	}
	if over := s.LoadedLatency(10 * s.MaxIOPS); over < high {
		t.Fatal("overload must clamp at max inflation")
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

func TestPeek(t *testing.T) {
	dev, _ := newNand(t, 4096)
	src := []byte{1, 2, 3}
	if _, err := dev.Write(0, src, 10); err != nil {
		t.Fatal(err)
	}
	if got := dev.Peek(10, 3); !bytes.Equal(got, src) {
		t.Fatalf("peek %v", got)
	}
}

func TestDeviceChannels(t *testing.T) {
	dev, _ := newNand(t, 4096)
	// channels ≈ MaxIOPS × mediaLatency = 500e3 × 90µs = 45.
	if ch := dev.Channels(); ch < 20 || ch > 90 {
		t.Fatalf("channels %d outside expected band", ch)
	}
	if dev.MaxOutstanding == 0 {
		t.Fatal("Nand should carry a recommended outstanding cap (§4.1)")
	}
}
