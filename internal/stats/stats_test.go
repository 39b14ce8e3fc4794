package stats

import (
	"fmt"
	"math"
	"testing"
)

func TestHistogramEmpty(t *testing.T) {
	h := NewHistogram()
	if h.Count() != 0 || h.Mean() != 0 || h.P99() != 0 || h.Min() != 0 || h.Max() != 0 {
		t.Fatal("empty histogram should report zeros")
	}
}

func TestHistogramBasics(t *testing.T) {
	h := NewHistogram()
	for i := 1; i <= 100; i++ {
		h.Observe(float64(i))
	}
	if h.Count() != 100 {
		t.Fatalf("count %d", h.Count())
	}
	if m := h.Mean(); math.Abs(m-50.5) > 1e-9 {
		t.Fatalf("mean %g", m)
	}
	if h.Min() != 1 || h.Max() != 100 {
		t.Fatalf("min/max %g/%g", h.Min(), h.Max())
	}
	checks := []struct {
		q    float64
		want float64
		tol  float64
	}{
		{0.5, 50, 3}, {0.95, 95, 4}, {0.99, 99, 4},
	}
	for _, c := range checks {
		got := h.Quantile(c.q)
		if math.Abs(got-c.want) > c.tol {
			t.Errorf("q%.2f = %g, want %g ± %g", c.q, got, c.want, c.tol)
		}
	}
}

func TestHistogramRelativeError(t *testing.T) {
	h := NewHistogram()
	const v = 1234.5
	for i := 0; i < 1000; i++ {
		h.Observe(v)
	}
	for _, q := range []float64{0.1, 0.5, 0.9, 0.99} {
		got := h.Quantile(q)
		if math.Abs(got-v)/v > 0.03 {
			t.Fatalf("q%g = %g, want within 3%% of %g", q, got, v)
		}
	}
}

func TestHistogramNegativeClamped(t *testing.T) {
	h := NewHistogram()
	h.Observe(-5)
	if h.Min() != 0 {
		t.Fatalf("negative observation should clamp to 0, min=%g", h.Min())
	}
}

func TestHistogramWideRange(t *testing.T) {
	h := NewHistogram()
	// Mix of microseconds and seconds.
	for i := 0; i < 99; i++ {
		h.Observe(10e-6)
	}
	h.Observe(1.0)
	if p50 := h.P50(); math.Abs(p50-10e-6)/10e-6 > 0.05 {
		t.Fatalf("p50 %g, want ~10µs", p50)
	}
	if p99 := h.Quantile(0.999); p99 < 0.5 {
		t.Fatalf("p99.9 %g, want ~1s", p99)
	}
}

func TestCDF(t *testing.T) {
	// 10 items; one gets 91 accesses, rest 1 each.
	counts := make([]uint64, 10)
	for i := range counts {
		counts[i] = 1
	}
	counts[3] = 91
	pts := CDF(counts, []float64{0.1, 0.5, 1.0})
	if len(pts) != 3 {
		t.Fatalf("want 3 points, got %d", len(pts))
	}
	if math.Abs(pts[0].Frac-0.91) > 1e-9 {
		t.Fatalf("top 10%% should cover 91%% of accesses, got %g", pts[0].Frac)
	}
	if pts[2].Frac != 1 {
		t.Fatalf("full population should cover 100%%, got %g", pts[2].Frac)
	}
}

func TestCDFEmpty(t *testing.T) {
	if CDF(nil, []float64{0.5}) != nil {
		t.Fatal("nil counts should give nil")
	}
	if CDF([]uint64{0, 0}, []float64{0.5}) != nil {
		t.Fatal("all-zero counts should give nil")
	}
}

func TestCDFMonotone(t *testing.T) {
	counts := []uint64{5, 3, 9, 1, 7, 2, 8, 4, 6, 10}
	fr := []float64{0.1, 0.2, 0.3, 0.5, 0.7, 1.0}
	pts := CDF(counts, fr)
	prev := 0.0
	for _, p := range pts {
		if p.Frac < prev {
			t.Fatalf("CDF not monotone at x=%g", p.X)
		}
		prev = p.Frac
	}
}

func TestHistogramMergeEqualsDirectObservation(t *testing.T) {
	// Merging split histograms must be indistinguishable from observing
	// every value in one — counts, sum, extremes and every quantile.
	direct, a, b := NewHistogram(), NewHistogram(), NewHistogram()
	for i := 0; i < 5000; i++ {
		v := 1e-6 * float64(i%977+1) * float64(i%13+1)
		direct.Observe(v)
		if i%3 == 0 {
			a.Observe(v)
		} else {
			b.Observe(v)
		}
	}
	a.Merge(b)
	if a.Count() != direct.Count() {
		t.Fatalf("count %d vs %d", a.Count(), direct.Count())
	}
	// Summation order differs between split and direct accumulation, so
	// the mean is equal only to floating-point reassociation error.
	if d := math.Abs(a.Mean()-direct.Mean()) / direct.Mean(); d > 1e-12 {
		t.Fatalf("mean diverged beyond reassociation error: %g vs %g", a.Mean(), direct.Mean())
	}
	if a.Min() != direct.Min() || a.Max() != direct.Max() {
		t.Fatalf("extremes diverged: min %g/%g max %g/%g", a.Min(), direct.Min(), a.Max(), direct.Max())
	}
	for _, q := range []float64{0, 0.1, 0.5, 0.95, 0.99, 0.999, 1} {
		if a.Quantile(q) != direct.Quantile(q) {
			t.Fatalf("q%g diverged: %g vs %g", q, a.Quantile(q), direct.Quantile(q))
		}
	}
}

func TestHistogramMergeEdgeCases(t *testing.T) {
	h := NewHistogram()
	h.Observe(0.5)
	h.Merge(nil)            // no-op
	h.Merge(NewHistogram()) // empty no-op
	if h.Count() != 1 || h.Max() != 0.5 {
		t.Fatalf("no-op merges changed the histogram: %s", h)
	}
	empty := NewHistogram()
	empty.Merge(h) // into empty
	if empty.Count() != 1 || empty.Min() != 0.5 || empty.Max() != 0.5 {
		t.Fatalf("merge into empty lost data: %s", empty)
	}
	low := NewHistogram()
	low.Observe(0.25)
	h.Merge(low) // a smaller value lowers Min only
	if h.Min() != 0.25 || h.Max() != 0.5 || h.Count() != 2 {
		t.Fatalf("merge extrema wrong: %s", h)
	}
	if q := h.Quantile(0.5); math.Abs(q-0.25) > 0.01 {
		t.Fatalf("median of {0.25, 0.5} = %g, want 0.25 (nearest rank)", q)
	}
}

func TestP999Ordering(t *testing.T) {
	h := NewHistogram()
	for i := 1; i <= 10000; i++ {
		h.Observe(float64(i) * 1e-6)
	}
	if !(h.P50() <= h.P95() && h.P95() <= h.P99() && h.P99() <= h.P999() && h.P999() <= h.Max()) {
		t.Fatalf("quantile ordering violated: p50=%g p95=%g p99=%g p999=%g max=%g",
			h.P50(), h.P95(), h.P99(), h.P999(), h.Max())
	}
	if h.P999() <= h.P95() {
		t.Fatalf("p999 %g should exceed p95 %g on a uniform ramp", h.P999(), h.P95())
	}
}

func TestQuantileNearestRank(t *testing.T) {
	// Regression: the rank used to be computed as floor(q·n) with a
	// strict-inequality scan, selecting the (k+1)-th ordered sample —
	// P99 of exactly 100 samples returned the 100th (the max). Pin the
	// nearest-rank (ceil(q·n)) order statistics for small fixed samples,
	// to the histogram's ~2% bucket resolution.
	h := NewHistogram()
	for i := 1; i <= 100; i++ {
		h.Observe(float64(i))
	}
	pin := func(q, want float64) {
		t.Helper()
		got := h.Quantile(q)
		if math.Abs(got-want) > 0.025*want {
			t.Fatalf("q%g = %g, want %g ± 2.5%%", q, got, want)
		}
	}
	pin(0.50, 50) // ceil(50.0) = 50th sample (the old code returned the 51st)
	pin(0.95, 95) // ceil(95.0) = 95th
	pin(0.99, 99) // ceil(99.0) = 99th — NOT the max
	if got := h.Quantile(0.99); got >= 100 {
		t.Fatalf("P99 of 100 samples returned the max (%g): off-by-one regressed", got)
	}
	// ceil(99.9) = 100th: the max exactly (clamped, not bucket-rounded).
	if got := h.Quantile(0.999); got != 100 {
		t.Fatalf("P999 of 100 samples = %g, want the max (100)", got)
	}

	// A 4-sample histogram exercises the ranks directly.
	s := NewHistogram()
	for _, v := range []float64{10, 20, 30, 40} {
		s.Observe(v)
	}
	for _, c := range []struct{ q, want float64 }{
		{0.25, 10}, // ceil(1.0) = 1st
		{0.50, 20}, // ceil(2.0) = 2nd (old: 3rd = 30)
		{0.51, 30}, // ceil(2.04) = 3rd
		{0.75, 30}, // ceil(3.0) = 3rd
		{0.76, 40}, // ceil(3.04) = 4th
	} {
		got := s.Quantile(c.q)
		if math.Abs(got-c.want) > 0.025*c.want {
			t.Fatalf("4-sample q%g = %g, want %g", c.q, got, c.want)
		}
	}
	// Exact-product float hazard: 0.9 × 10 evaluates just above 9.0; the
	// rank must still be 9, not 10.
	d := NewHistogram()
	for i := 1; i <= 10; i++ {
		d.Observe(float64(i))
	}
	if got := d.Quantile(0.9); math.Abs(got-9) > 0.25 {
		t.Fatalf("q0.9 of 10 samples = %g, want the 9th (9)", got)
	}
	// A single observation is every quantile.
	one := NewHistogram()
	one.Observe(7)
	for _, q := range []float64{0.01, 0.5, 0.99} {
		if got := one.Quantile(q); got != 7 {
			t.Fatalf("single-sample q%g = %g, want 7", q, got)
		}
	}
}

func TestJainFairness(t *testing.T) {
	// Uniform allocation is perfectly fair.
	if got := JainFairness([]float64{5, 5, 5, 5}); math.Abs(got-1) > 1e-12 {
		t.Fatalf("uniform Jain = %g, want 1", got)
	}
	// A single hot entry among n scores 1/n.
	if got := JainFairness([]float64{9, 0, 0}); math.Abs(got-1.0/3) > 1e-12 {
		t.Fatalf("single-hot Jain = %g, want 1/3", got)
	}
	// Empty and all-zero inputs score 0.
	if got := JainFairness(nil); got != 0 {
		t.Fatalf("empty Jain = %g, want 0", got)
	}
	if got := JainFairness([]float64{0, 0}); got != 0 {
		t.Fatalf("all-zero Jain = %g, want 0", got)
	}
	// NaN and Inf entries are skipped, not propagated.
	if got := JainFairness([]float64{math.NaN(), 3, 3, math.Inf(1)}); math.Abs(got-1) > 1e-12 {
		t.Fatalf("NaN-skipping Jain = %g, want 1", got)
	}
	if got := JainFairness([]float64{math.NaN()}); got != 0 {
		t.Fatalf("all-NaN Jain = %g, want 0", got)
	}
	// A mild skew lands strictly between 1/n and 1.
	got := JainFairness([]float64{4, 2, 2})
	if !(got > 1.0/3 && got < 1) {
		t.Fatalf("skewed Jain = %g, want in (1/3, 1)", got)
	}
}

// observables renders everything a Histogram reports: count, sum,
// extremes, mean, the quantile curve at 1 % steps and P999. Floats print
// in their shortest round-trip form, so equal text is equal bits.
func observables(h *Histogram) string {
	s := fmt.Sprintf("n=%d sum=%v min=%v max=%v mean=%v q=", h.Count(), h.Sum(), h.Min(), h.Max(), h.Mean())
	for i := 0; i <= 100; i++ {
		s += fmt.Sprintf("%v,", h.Quantile(float64(i)/100))
	}
	return s + fmt.Sprint(h.P999())
}

// dyadic returns n values k/2³⁰ for k in [lo, hi) (≈ 1 ns units), spread
// by a fixed stride: integer multiples of a power of two, so every sum of
// them is exact and merge order cannot change a Sum bit.
func dyadic(lo, hi, n int) []float64 {
	vs := make([]float64, n)
	for i := range vs {
		vs[i] = float64(lo+(i*7919)%(hi-lo)) / (1 << 30)
	}
	return vs
}

// wide returns a histogram holding vs whose stored range is wider than
// the occupied one: it observed far smaller and larger values, then Reset.
func wide(vs []float64) *Histogram {
	h := NewHistogram()
	h.Observe(1e-12)
	h.Observe(100)
	h.Reset()
	for _, v := range vs {
		h.Observe(v)
	}
	return h
}

func TestCompactMatchesOriginal(t *testing.T) {
	vs := dyadic(5_000, 1_000_000, 3000)
	grown := NewHistogram() // its range grew observation by observation
	for _, v := range vs {
		grown.Observe(v)
	}
	for _, tc := range []struct {
		name string
		h    *Histogram
	}{{"wide", wide(vs)}, {"grown", grown}} {
		name, h := tc.name, tc.h
		c := h.Compact()
		if got, want := observables(c), observables(h); got != want {
			t.Fatalf("%s: Compact changed an observable:\n got %s\nwant %s", name, got, want)
		}
		if n := len(c.buckets); c.buckets[0] == 0 || c.buckets[n-1] == 0 {
			t.Fatalf("%s: Compact keeps %d buckets with an empty end", name, n)
		}
		if cc := c.Compact(); observables(cc) != observables(h) || len(cc.buckets) != len(c.buckets) {
			t.Fatalf("%s: Compact of a compact histogram changed it", name)
		}
		c.Observe(1)
		if h.Count() != uint64(len(vs)) {
			t.Fatalf("%s: observing into a Compact copy changed the original", name)
		}
	}
}

func TestCompactEmptyStaysUsable(t *testing.T) {
	for _, h := range []*Histogram{NewHistogram(), wide(nil)} {
		c := h.Compact()
		if got, want := observables(c), observables(NewHistogram()); got != want {
			t.Fatalf("compacted empty histogram is not empty: %s", got)
		}
		if len(c.buckets) != 0 {
			t.Fatalf("compacted empty histogram stores %d buckets", len(c.buckets))
		}
		direct := NewHistogram()
		for _, v := range dyadic(1_000, 50_000, 200) {
			c.Observe(v)
			direct.Observe(v)
		}
		if got, want := observables(c), observables(direct); got != want {
			t.Fatalf("observing into a compacted empty histogram:\n got %s\nwant %s", got, want)
		}
	}
}

// TestMergeOffsetRanges merges sources whose values lie below, inside and
// above the destination's range, in all four orders of wide (stored range
// wider than occupied) and compact (exactly occupied) histograms: each must
// equal observing every value directly, bit for bit (the values are dyadic,
// so sums are exact in any order).
func TestMergeOffsetRanges(t *testing.T) {
	dst := dyadic(100_000, 1_000_000, 500)
	srcs := []struct {
		where string
		vs    []float64
	}{
		{"below", dyadic(1_000, 10_000, 300)},
		{"inside", dyadic(200_000, 500_000, 300)},
		{"above", dyadic(10_000_000, 100_000_000, 300)},
		{"around", dyadic(1_000, 100_000_000, 300)},
	}
	forms := []struct {
		name string
		make func([]float64) *Histogram
	}{
		{"wide", wide},
		{"compact", func(vs []float64) *Histogram { return wide(vs).Compact() }},
	}
	for _, src := range srcs {
		direct := NewHistogram()
		for _, v := range append(append([]float64(nil), dst...), src.vs...) {
			direct.Observe(v)
		}
		want := observables(direct)
		for _, d := range forms {
			for _, o := range forms {
				h := d.make(dst)
				h.Merge(o.make(src.vs))
				if got := observables(h); got != want {
					t.Fatalf("%s source, %s into %s:\n got %s\nwant %s", src.where, o.name, d.name, got, want)
				}
			}
		}
	}
}

func TestResetMatchesFresh(t *testing.T) {
	h := NewHistogram()
	for _, v := range dyadic(1, 1_000_000_000, 1000) {
		h.Observe(v)
	}
	h.Reset()
	if got, want := observables(h), observables(NewHistogram()); got != want {
		t.Fatalf("Reset histogram is not empty: %s", got)
	}
	fresh := NewHistogram()
	for _, v := range dyadic(3_000, 300_000, 1000) {
		h.Observe(v)
		fresh.Observe(v)
	}
	if got, want := observables(h), observables(fresh); got != want {
		t.Fatalf("Reset then observe:\n got %s\nwant %s", got, want)
	}
}
