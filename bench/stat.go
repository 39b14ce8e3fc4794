package main

import (
	"math"
	"sort"
)

// at returns the value at fractional index pos of the sorted sample s,
// interpolating linearly between neighbours and clamping to its ends.
func at(s []float64, pos float64) float64 {
	pos = math.Max(0, math.Min(pos, float64(len(s)-1)))
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics; 0 for an empty sample. xs is not modified.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	return at(sorted(xs), q*float64(len(xs)-1))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// trimmedMean is the mean of xs without its largest share top (at least one
// value is always kept).
func trimmedMean(xs []float64, top float64) float64 {
	s := sorted(xs)
	return mean(s[:max(len(s)-int(top*float64(len(s))), min(len(s), 1))])
}

// spread is the interquartile range as a share of the median, with the
// quartiles Python's statistics.quantiles(xs, n=4) returns (the exclusive
// method) — the repeatability figure the benchmark's bounds are set from.
func spread(xs []float64) float64 {
	med := median(xs)
	if len(xs) < 2 || med == 0 {
		return 0
	}
	s, n := sorted(xs), float64(len(xs))
	return math.Abs((at(s, 0.75*(n+1)-1) - at(s, 0.25*(n+1)-1)) / med)
}

// pct returns 100·a/b, or 0 when b is 0.
func pct(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return 100 * a / b
}

// per returns a/b, or 0 when b is 0.
func per(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
