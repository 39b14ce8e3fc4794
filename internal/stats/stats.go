// Package stats provides the streaming statistics used across the
// reproduction: latency histograms with percentile queries (p50/p95/p99 are
// the paper's serving metrics, §2.3), cumulative-distribution builders for
// the locality studies (Fig. 4), and simple counters.
package stats

import (
	"fmt"
	"math"
	"slices"
	"sort"
)

// Histogram is a log-linear histogram for non-negative values, similar in
// spirit to HDR histograms: values are bucketed with bounded relative error
// so that percentile queries over microsecond..second latencies stay cheap.
// Every histogram covers [base, ∞) with ~2% relative bucket error (growth
// is the per-bucket multiplicative width); values below base land in
// bucket 0. The zero value is an empty histogram.
type Histogram struct {
	// buckets[i] counts bucket lo+i: only a range around the observed
	// buckets is stored (cover).
	buckets []uint64
	lo      int
	counts  uint64
	sum     float64
	min     float64 // valid once counts > 0, like max
	max     float64
}

const growth, base = 1.02, 1e-9

// NewHistogram returns an empty histogram; it stores no buckets until the
// first observation.
func NewHistogram() *Histogram { return new(Histogram) }

// Reset empties h but keeps its bucket storage and stored range, so a
// histogram refilled with similar values allocates nothing.
func (h *Histogram) Reset() {
	clear(h.buckets)
	*h = Histogram{buckets: h.buckets, lo: h.lo}
}

// Compact returns a copy of h that stores only its first to last non-zero
// bucket (none when h is empty). Every observable of the copy equals h's.
func (h *Histogram) Compact() *Histogram {
	c, b := *h, h.buckets
	for len(b) > 0 && b[0] == 0 {
		b, c.lo = b[1:], c.lo+1
	}
	for len(b) > 0 && b[len(b)-1] == 0 {
		b = b[:len(b)-1]
	}
	c.buckets = slices.Clone(b)
	return &c
}

// cover reallocates the stored range to include buckets a..b (a <= b) with
// half its width (at least 32 buckets, a factor of 1.9) spare on each side,
// so values straying past the old extremes seldom reallocate again.
func (h *Histogram) cover(a, b int) {
	old, oldLo := h.buckets, h.lo
	if len(old) > 0 {
		a, b = min(a, oldLo), max(b, oldLo+len(old)-1)
	}
	pad := max(32, (b-a+1)/2)
	h.lo = max(a-pad, 0)
	h.buckets = make([]uint64, b+pad-h.lo+1)
	if len(old) > 0 {
		copy(h.buckets[oldLo-h.lo:], old)
	}
}

func bucketIndex(v float64) int {
	if v <= base {
		return 0
	}
	return 1 + int(math.Log(v/base)/math.Log(growth))
}

func bucketValue(i int) float64 {
	if i <= 0 {
		return base
	}
	return base * math.Pow(growth, float64(i)-0.5)
}

// Observe records one value. Negative values are clamped to zero.
func (h *Histogram) Observe(v float64) {
	if v < 0 {
		v = 0
	}
	i := bucketIndex(v)
	if i < h.lo || i-h.lo >= len(h.buckets) {
		h.cover(i, i)
	}
	h.buckets[i-h.lo]++
	if h.counts == 0 || v < h.min {
		h.min = v
	}
	if h.counts == 0 || v > h.max {
		h.max = v
	}
	h.counts++
	h.sum += v
}

// Count returns the number of observations.
func (h *Histogram) Count() uint64 { return h.counts }

// Sum returns the sum of all observations (0 if empty).
func (h *Histogram) Sum() float64 { return h.sum }

// Mean returns the mean of all observations (0 if empty).
func (h *Histogram) Mean() float64 {
	if h.counts == 0 {
		return 0
	}
	return h.sum / float64(h.counts)
}

// Min returns the smallest observation (0 if empty).
func (h *Histogram) Min() float64 {
	if h.counts == 0 {
		return 0
	}
	return h.min
}

// Max returns the largest observation (0 if empty).
func (h *Histogram) Max() float64 {
	if h.counts == 0 {
		return 0
	}
	return h.max
}

// Quantile returns the value at quantile q in [0, 1] under the
// nearest-rank definition — the smallest observation whose cumulative
// count reaches ceil(q·n) — approximated to the histogram's bucket
// resolution. Returns 0 for an empty histogram.
//
// An earlier revision computed the rank as floor(q·n) and scanned with a
// strict inequality, selecting the (k+1)-th ordered sample: P99 of exactly
// 100 samples returned the 100th (the max), inflating every reported tail
// latency by one order statistic.
func (h *Histogram) Quantile(q float64) float64 {
	if h.counts == 0 {
		return 0
	}
	if q <= 0 {
		return h.min
	}
	if q >= 1 {
		return h.max
	}
	// ceil(q·n), guarded against float error pushing an exact product
	// (0.9 × 10 evaluates just above 9.0) onto the next integer. The
	// guard is relative — an absolute epsilon stops covering the
	// product's ulp once n passes ~1e7.
	rank := uint64(math.Ceil(q * float64(h.counts) * (1 - 1e-12)))
	if rank < 1 {
		rank = 1
	}
	var cum uint64
	for i, c := range h.buckets {
		cum += c
		if cum >= rank {
			v := bucketValue(h.lo + i)
			if v < h.min {
				v = h.min
			}
			if v > h.max {
				v = h.max
			}
			return v
		}
	}
	return h.max
}

// P50, P95 and P99 are convenience accessors for the paper's serving
// percentiles.
func (h *Histogram) P50() float64 { return h.Quantile(0.50) }

// P95 returns the 95th percentile.
func (h *Histogram) P95() float64 { return h.Quantile(0.95) }

// P99 returns the 99th percentile.
func (h *Histogram) P99() float64 { return h.Quantile(0.99) }

// P999 returns the 99.9th percentile — the deep-tail metric migration
// interference shows up in first.
func (h *Histogram) P999() float64 { return h.Quantile(0.999) }

// Merge folds o's observations into h. All histograms share one bucket
// layout (growth and base), so merging is bucket-wise addition over o's
// stored range, wherever it lies against h's, and the result is identical
// to having observed every value directly — the cheap way to aggregate
// per-host latency into a fleet histogram.
func (h *Histogram) Merge(o *Histogram) {
	if o == nil || o.counts == 0 {
		return
	}
	if o.lo < h.lo || o.lo+len(o.buckets) > h.lo+len(h.buckets) {
		h.cover(o.lo, o.lo+len(o.buckets)-1)
	}
	for i, c := range o.buckets {
		h.buckets[o.lo-h.lo+i] += c
	}
	if h.counts == 0 || o.min < h.min {
		h.min = o.min
	}
	if h.counts == 0 || o.max > h.max {
		h.max = o.max
	}
	h.counts += o.counts
	h.sum += o.sum
}

// String summarizes the histogram for logs.
func (h *Histogram) String() string {
	return fmt.Sprintf("n=%d mean=%.3g p50=%.3g p95=%.3g p99=%.3g max=%.3g",
		h.counts, h.Mean(), h.P50(), h.P95(), h.P99(), h.Max())
}

// CDFPoint is one (x, cumulative fraction) sample of an empirical CDF.
type CDFPoint struct {
	X    float64
	Frac float64
}

// CDF computes an empirical cumulative distribution over counts. The input
// maps an item to its access count; the output is the cumulative fraction of
// total accesses covered by the top-k items, sampled at the given fractions
// of the item population (the exact form of Fig. 4: x = fraction of rows,
// y = fraction of accesses).
func CDF(counts []uint64, atFractions []float64) []CDFPoint {
	if len(counts) == 0 {
		return nil
	}
	sorted := make([]uint64, len(counts))
	copy(sorted, counts)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] > sorted[j] })
	var total uint64
	for _, c := range sorted {
		total += c
	}
	if total == 0 {
		return nil
	}
	out := make([]CDFPoint, 0, len(atFractions))
	var cum uint64
	next := 0
	for i, c := range sorted {
		cum += c
		frac := float64(i+1) / float64(len(sorted))
		for next < len(atFractions) && frac >= atFractions[next] {
			out = append(out, CDFPoint{X: atFractions[next], Frac: float64(cum) / float64(total)})
			next++
		}
	}
	for next < len(atFractions) {
		out = append(out, CDFPoint{X: atFractions[next], Frac: 1})
		next++
	}
	return out
}

// JainFairness returns Jain's fairness index (Σx)²/(n·Σx²) over the
// finite entries of xs — the standard allocation-evenness measure for
// non-negative shares (per-host load, per-class admitted throughput). It
// is 1.0 when all entries are equal, 1/n when a single entry holds
// everything, and 0 for an empty or all-zero input. NaN and ±Inf entries
// are skipped.
func JainFairness(xs []float64) float64 {
	var sum, sumSq float64
	n := 0
	for _, x := range xs {
		if math.IsNaN(x) || math.IsInf(x, 0) {
			continue
		}
		sum += x
		sumSq += x * x
		n++
	}
	if n == 0 || sumSq == 0 {
		return 0
	}
	return sum * sum / (float64(n) * sumSq)
}
