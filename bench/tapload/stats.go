package main

import (
	"math"
	"sort"
)

// quantile returns the q-quantile (0 ≤ q ≤ 1) of vals by linear
// interpolation between order statistics (the rule numpy and R type 7
// use): position q·(n−1) in the sorted sample. It is the one estimator
// every percentile in the benchmark goes through. An empty sample has no
// quantile and yields NaN.
func quantile(vals []float64, q float64) float64 {
	if len(vals) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (pos-float64(lo))*(s[hi]-s[lo])
}

func median(vals []float64) float64 { return quantile(vals, 0.5) }

// spread is the interquartile range as a share of the median — the
// run's own noise gauge when applied to per-round values
// (client.round_spread), and the figure the selfcheck prints.
func spread(vals []float64) float64 {
	m := median(vals)
	if m == 0 || math.IsNaN(m) {
		return math.NaN()
	}
	return (quantile(vals, 0.75) - quantile(vals, 0.25)) / m
}

// worseBy is how much worse b is than a, as a share of a, for a metric
// whose better direction is given: positive means b regressed.
func worseBy(a, b float64, higherIsBetter bool) float64 {
	if higherIsBetter {
		return (a - b) / a
	}
	return (b - a) / a
}
