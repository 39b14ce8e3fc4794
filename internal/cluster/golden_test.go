package cluster

import (
	"bytes"
	"fmt"
	"hash/fnv"
	"io"
	"testing"

	"sdm/internal/stats"
)

// writeHist renders every observable of a latency histogram: count, sum,
// extremes and the quantile curve at 1 % steps plus the deep tail. Floats
// print in their shortest round-trip form, so equal text is equal bits.
func writeHist(w io.Writer, h *stats.Histogram) {
	fmt.Fprintf(w, "n=%d sum=%v min=%v max=%v mean=%v q=", h.Count(), h.Sum(), h.Min(), h.Max(), h.Mean())
	for i := 0; i <= 100; i++ {
		fmt.Fprintf(w, "%v,", h.Quantile(float64(i)/100))
	}
	fmt.Fprintf(w, "%v\n", h.P999())
}

// resultDigest hashes every field of a Result, histograms included, except
// Trace: tracing must leave the rest of a Result bit-identical.
func resultDigest(r *Result) uint64 {
	h := fnv.New64a()
	fmt.Fprintf(h, "%s %v %d %d %d\n", r.Policy, r.OfferedQPS, r.Queries, r.Start, r.End)
	writeHist(h, r.Latency)
	fmt.Fprintf(h, "%v %v %v %v %d %v\n", r.AchievedQPS, r.HitRate, r.FMServedRate, r.RangeServedRate, r.SMWriteBytes, r.DWPDUtil)
	fmt.Fprintf(h, "%d %v %v\n", r.Shed, r.LoadFairness, r.ClassFairness)
	for _, c := range r.Classes {
		fmt.Fprintf(h, "%d %s %d %d %d %v\n", c.Class, c.Name, c.Offered, c.Shed, c.Delayed, c.MeanDelay)
		writeHist(h, c.Latency)
	}
	for _, hr := range r.Hosts {
		fmt.Fprintf(h, "%d %t %d %v %v %v %v %v %d %d %d %v\n", hr.ID, hr.Alive, hr.Queries, hr.AchievedQPS,
			hr.HitRate, hr.PooledHitRate, hr.FMServedRate, hr.RangeServedRate, hr.SMReads,
			hr.SMWriteBytes, hr.LifetimeSMWrites, hr.DWPDUtil)
		writeHist(h, hr.Latency)
	}
	for _, w := range r.Windows {
		fmt.Fprintf(h, "%d %d %d %v %v %v %v %v %v %v %d\n", w.Start, w.End, w.Queries, w.MeanLat, w.P99,
			w.MaxLat, w.HitRate, w.FMRate, w.RangeRate, w.SMPerQuery, w.SMWriteBytes)
	}
	fmt.Fprintf(h, "%t %d %d %d %d %v %v\n", r.DriftFired, r.DriftAt, r.FailedHost, r.FailTime,
		r.ReroutedUsers, r.WarmupSpike, r.WarmupHitDrop)
	return h.Sum64()
}

// TestFleetResultGolden pins every field of a multi-host Result bit for
// bit: two SLO classes (one queue-mode), weighted routing over six
// scorers, coordinated range adaptation, a drift rotation and a host
// failure in the measured Run. Any drift means the run, or the fold of its
// records into hosts, classes, windows and the warm-up split, changed.
func TestFleetResultGolden(t *testing.T) {
	in, tables := adaptiveFixture(t)
	f, _ := sloFleet(t, in, tables, 3, 2)
	if _, err := f.Run(300, 600); err != nil {
		t.Fatal(err)
	}
	if err := f.ScheduleDrift(0.3); err != nil {
		t.Fatal(err)
	}
	if err := f.ScheduleFailure(1, 0.5); err != nil {
		t.Fatal(err)
	}
	res, err := f.Run(600, 900)
	if err != nil {
		t.Fatal(err)
	}
	// The run must exercise every part of the fold it pins.
	var delayed int
	for _, c := range res.Classes {
		delayed += c.Delayed
	}
	if len(res.Classes) != 2 || res.Shed == 0 || delayed == 0 || !res.DriftFired ||
		res.FailedHost != 1 || res.WarmupSpike == 0 || len(res.Windows) != 8 {
		t.Fatalf("golden run does not cover the Result: classes=%d shed=%d delayed=%d drift=%t failed=%d spike=%v windows=%d",
			len(res.Classes), res.Shed, delayed, res.DriftFired, res.FailedHost, res.WarmupSpike, len(res.Windows))
	}
	const want uint64 = 0x82cc307119bc7dc2
	if got := resultDigest(res); got != want {
		t.Fatalf("Result digest %#x, want %#x", got, want)
	}
}

// TestMetricsExportGolden pins the bytes of a metered adaptive run's export
// in both formats: every family, label, sample and timestamp.
func TestMetricsExportGolden(t *testing.T) {
	in, tables := adaptiveFixture(t)
	f, _ := sloFleet(t, in, tables, 3, 2)
	if err := f.SetMetrics(MetricsConfig{}); err != nil {
		t.Fatal(err)
	}
	if _, err := f.Run(300, 600); err != nil {
		t.Fatal(err)
	}
	if err := f.ScheduleDrift(0.5); err != nil {
		t.Fatal(err)
	}
	if _, err := f.Run(300, 900); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name  string
		write func(io.Writer) error
		want  uint64
	}{
		{"openmetrics", f.WriteMetrics, 0x22d9d2eef6a246cd},
		{"jsonl", f.WriteMetricsJSONL, 0xa0285c637c915a81},
	} {
		var buf bytes.Buffer
		if err := c.write(&buf); err != nil {
			t.Fatal(err)
		}
		h := fnv.New64a()
		h.Write(buf.Bytes())
		if got := h.Sum64(); got != c.want {
			t.Errorf("%s export digest %#x, want %#x (%d bytes)", c.name, got, c.want, buf.Len())
		}
	}
}

// TestResultOutlivesNextRun holds a Result to what it was when its Run
// returned. The fleet refills one set of tallies every Run, so a Result
// whose histograms aliased them would change under the next Run; the SLO
// stack's Result carries host, class and fleet histograms to catch that.
func TestResultOutlivesNextRun(t *testing.T) {
	in, tables := adaptiveFixture(t)
	for _, c := range []struct {
		name    string
		sticky  bool
		workers int
	}{{"inline", false, 1}, {"queued,workers=4", true, 4}} {
		t.Run(c.name, func(t *testing.T) {
			spec := sloSpec(t, 3, c.workers)
			if c.sticky {
				spec.Router = NewSticky(3, 64)
			}
			f, err := Build(in, tables, spec)
			if err != nil {
				t.Fatal(err)
			}
			first, err := f.Run(300, 600)
			if err != nil {
				t.Fatal(err)
			}
			if len(first.Classes) != 2 || first.Latency.Count() == 0 {
				t.Fatalf("first Run has %d classes and %d latencies; want 2 and some", len(first.Classes), first.Latency.Count())
			}
			want := resultDigest(first)
			second, err := f.Run(600, 900)
			if err != nil {
				t.Fatal(err)
			}
			if resultDigest(second) == want {
				t.Fatal("the second Run reproduced the first Result: the check cannot tell aliasing apart")
			}
			if got := resultDigest(first); got != want {
				t.Fatalf("the first Result's digest moved from %#x to %#x across the next Run", want, got)
			}
		})
	}
}
