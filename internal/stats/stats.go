// Package stats provides the streaming statistics used across the
// reproduction: latency histograms with percentile queries (p50/p95/p99 are
// the paper's serving metrics, §2.3), cumulative-distribution builders for
// the locality studies (Fig. 4), and simple counters.
package stats

import (
	"fmt"
	"math"
	"sort"
)

// Histogram is a log-linear histogram for non-negative values, similar in
// spirit to HDR histograms: values are bucketed with bounded relative error
// so that percentile queries over microsecond..second latencies stay cheap.
// The zero value is not usable; call NewHistogram.
type Histogram struct {
	buckets []uint64
	counts  uint64
	sum     float64
	min     float64
	max     float64
	// growth is the per-bucket multiplicative width.
	growth float64
	base   float64
}

// NewHistogram returns a histogram covering [base, ∞) with ~2% relative
// bucket error. Values below base land in bucket 0.
func NewHistogram() *Histogram {
	return &Histogram{
		buckets: make([]uint64, 1, 1024),
		growth:  1.02,
		base:    1e-9,
		min:     math.Inf(1),
		max:     math.Inf(-1),
	}
}

func (h *Histogram) bucketIndex(v float64) int {
	if v <= h.base {
		return 0
	}
	return 1 + int(math.Log(v/h.base)/math.Log(h.growth))
}

func (h *Histogram) bucketValue(i int) float64 {
	if i <= 0 {
		return h.base
	}
	return h.base * math.Pow(h.growth, float64(i)-0.5)
}

// Observe records one value. Negative values are clamped to zero.
func (h *Histogram) Observe(v float64) {
	if v < 0 {
		v = 0
	}
	i := h.bucketIndex(v)
	for i >= len(h.buckets) {
		h.buckets = append(h.buckets, 0)
	}
	h.buckets[i]++
	h.counts++
	h.sum += v
	if v < h.min {
		h.min = v
	}
	if v > h.max {
		h.max = v
	}
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
			v := h.bucketValue(i)
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

// Merge folds o's observations into h. Both histograms share the same
// bucket layout (growth and base are fixed at construction), so merging
// is bucket-wise addition and the result is identical to having observed
// every value directly — the cheap way to aggregate per-host latency
// into a fleet histogram.
func (h *Histogram) Merge(o *Histogram) {
	if o == nil || o.counts == 0 {
		return
	}
	for len(h.buckets) < len(o.buckets) {
		h.buckets = append(h.buckets, 0)
	}
	for i, c := range o.buckets {
		h.buckets[i] += c
	}
	h.counts += o.counts
	h.sum += o.sum
	if o.min < h.min {
		h.min = o.min
	}
	if o.max > h.max {
		h.max = o.max
	}
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
