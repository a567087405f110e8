package main

import (
	"math"
	"sort"
)

// sorted returns an ascending copy of xs.
func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// median returns the middle value of xs (the mean of the two middle values
// for an even count); NaN for no samples.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := sorted(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles returns the first and third quartiles of xs by the "exclusive"
// method of Python's statistics.quantiles(xs, n=4), the rule the benchmark's
// spread check is stated in. One sample is its own quartiles.
func quartiles(xs []float64) (q1, q3 float64) {
	s := sorted(xs)
	switch len(s) {
	case 0:
		return math.NaN(), math.NaN()
	case 1:
		return s[0], s[0]
	}
	ld := len(s)
	m := ld + 1
	q := func(i int) float64 {
		j := i * m / 4
		if j < 1 {
			j = 1
		}
		if j > ld-1 {
			j = ld - 1
		}
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return q(1), q(3)
}

// spread is the interquartile distance of xs as a share of its median.
func spread(xs []float64) float64 {
	q1, q3 := quartiles(xs)
	return (q3 - q1) / math.Abs(median(xs))
}

// percentile is the nearest-rank p-th percentile of xs.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := sorted(xs)
	// The epsilon keeps float rounding (99.9/100*10000 = 9990.000000000002)
	// from moving an exact rank up by one.
	rank := int(math.Ceil(p/100*float64(len(s)) - 1e-9))
	return s[max(rank, 1)-1]
}

// tailPercentiles are the candidate tail percentiles, highest first.
var tailPercentiles = []float64{99.9, 99, 95, 90, 80, 50}

// tail returns the highest percentile of tailPercentiles that has at least
// ten samples beyond it, and that percentile's value (nearest rank). ok is
// false when even the median has fewer than ten samples beyond it.
func tail(xs []float64) (pct, v float64, ok bool) {
	n := len(xs)
	for _, p := range tailPercentiles {
		if float64(n)*(1-p/100) >= 10-1e-9 {
			return p, percentile(xs, p), true
		}
	}
	return 0, 0, false
}

// Verdicts of a comparison between a base side and a new side.
const (
	verdictBetter     = "better"
	verdictWorse      = "worse"
	verdictSame       = "same"
	verdictUnresolved = "unresolved"
)

// minPairs is the fewest run pairs a gain may rest on.
const minPairs = 10

// verdict compares paired runs of one metric. base[i] and next[i] are the
// i-th runs of each side; lowerBetter gives the direction; bound is the
// share of the base median by which the metric may worsen before it counts
// as a regression (0: no bound, so no regression verdict).
//
// better: over at least minPairs pairs, the new side wins at least nine
// tenths of them (ties count for neither) and the medians differ by more
// than the base's interquartile distance; the same showing on fewer pairs
// is unresolved. worse: the new median is worse than the base median by
// more than the bound. Where the base's own spread exceeds the bound the
// metric is unresolved, unless every new run reads better than every base
// run. same: within the bound, no gain shown.
func verdict(base, next []float64, lowerBetter bool, bound float64) string {
	n := len(base)
	if len(next) < n {
		n = len(next)
	}
	if n == 0 {
		return verdictUnresolved
	}
	gain := func(b, x float64) float64 { // positive when x is better than b
		if lowerBetter {
			return b - x
		}
		return x - b
	}
	wins := 0
	for i := 0; i < n; i++ {
		if gain(base[i], next[i]) > 0 {
			wins++
		}
	}
	mb, mn := median(base), median(next)
	q1, q3 := quartiles(base)
	if float64(wins) >= 0.9*float64(n) && gain(mb, mn) > q3-q1 {
		if n < minPairs {
			return verdictUnresolved
		}
		return verdictBetter
	}
	allBetter := true
	for _, b := range base {
		for _, x := range next {
			if gain(b, x) <= 0 {
				allBetter = false
			}
		}
	}
	if bound <= 0 {
		return verdictUnresolved
	}
	if spread(base) > bound && !allBetter {
		return verdictUnresolved
	}
	if -gain(mb, mn) > bound*math.Abs(mb) {
		return verdictWorse
	}
	return verdictSame
}
