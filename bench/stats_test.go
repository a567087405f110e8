package main

import (
	"math"
	"testing"
)

func near(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func TestMedianAndQuartiles(t *testing.T) {
	// Quartiles match Python's statistics.quantiles(xs, n=4), the rule the
	// benchmark's spread check is stated in.
	for _, tc := range []struct {
		xs             []float64
		med, q1, q3    float64
		spreadOfMedian float64
	}{
		{xs: []float64{7}, med: 7, q1: 7, q3: 7, spreadOfMedian: 0},
		{xs: []float64{1, 2}, med: 1.5, q1: 0.75, q3: 2.25, spreadOfMedian: 1},
		{xs: []float64{3, 1, 2}, med: 2, q1: 1, q3: 3, spreadOfMedian: 1},
		{xs: []float64{1, 2, 3, 4}, med: 2.5, q1: 1.25, q3: 3.75, spreadOfMedian: 1},
		{xs: []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, med: 5.5, q1: 2.75, q3: 8.25, spreadOfMedian: 1},
		{xs: []float64{10, 12.5, 11, 30, 9.5}, med: 11, q1: 9.75, q3: 21.25, spreadOfMedian: 11.5 / 11},
	} {
		q1, q3 := quartiles(tc.xs)
		if !near(median(tc.xs), tc.med) || !near(q1, tc.q1) || !near(q3, tc.q3) {
			t.Errorf("%v: median %v quartiles %v %v, want %v %v %v", tc.xs, median(tc.xs), q1, q3, tc.med, tc.q1, tc.q3)
		}
		if got := spread(tc.xs); !near(got, tc.spreadOfMedian) {
			t.Errorf("%v: spread %v, want %v", tc.xs, got, tc.spreadOfMedian)
		}
	}
	if !math.IsNaN(median(nil)) {
		t.Error("median of no samples must be NaN")
	}
}

func seq(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	return xs
}

func TestTailHasTenSamplesBeyond(t *testing.T) {
	for _, tc := range []struct {
		n       int
		pct, v  float64
		defined bool
	}{
		{n: 19, defined: false}, // the median has only 9 beyond it
		{n: 20, pct: 50, v: 10, defined: true},
		{n: 49, pct: 50, v: 25, defined: true},
		{n: 50, pct: 80, v: 40, defined: true},
		{n: 100, pct: 90, v: 90, defined: true},
		{n: 199, pct: 90, v: 180, defined: true},
		{n: 200, pct: 95, v: 190, defined: true},
		{n: 1000, pct: 99, v: 990, defined: true},
		{n: 10000, pct: 99.9, v: 9990, defined: true},
	} {
		pct, v, ok := tail(seq(tc.n))
		if ok != tc.defined || (ok && (pct != tc.pct || v != tc.v)) {
			t.Errorf("n=%d: tail p%v=%v ok=%v, want p%v=%v ok=%v", tc.n, pct, v, ok, tc.pct, tc.v, tc.defined)
		}
	}
}

func TestVerdict(t *testing.T) {
	base := []float64{100, 101, 99, 100, 102, 98, 100, 101, 99, 100}
	shift := func(xs []float64, d float64) []float64 {
		out := make([]float64, len(xs))
		for i, x := range xs {
			out[i] = x + d
		}
		return out
	}
	noisy := []float64{60, 140, 80, 120, 100, 70, 130, 90, 110, 100}
	for _, tc := range []struct {
		name        string
		base, next  []float64
		lowerBetter bool
		bound       float64
		want        string
	}{
		{"clearly faster", base, shift(base, -10), true, 0.1, verdictBetter},
		{"clearly faster, 9 pairs only", base[:9], shift(base, -10)[:9], true, 0.1, verdictUnresolved},
		{"faster in a single pair", base[:1], shift(base, -10)[:1], true, 0.1, verdictUnresolved},
		{"clearly slower, beyond bound", base, shift(base, 20), true, 0.1, verdictWorse},
		{"slower within bound", base, shift(base, 5), true, 0.1, verdictSame},
		{"higher-is-better metric rising", base, shift(base, 10), false, 0.1, verdictBetter},
		{"higher-is-better metric falling", base, shift(base, -20), false, 0.1, verdictWorse},
		{"unchanged", base, base, true, 0.1, verdictSame},
		{"base spread wider than bound", noisy, shift(noisy, 5), true, 0.1, verdictUnresolved},
		{"wins 8 of 10 pairs only", base, []float64{90, 91, 89, 90, 92, 88, 90, 91, 105, 105}, true, 0.1, verdictSame},
		{"no bound and no gain", base, shift(base, 20), true, 0, verdictUnresolved},
		{"no runs", base, nil, true, 0.1, verdictUnresolved},
	} {
		if got := verdict(tc.base, tc.next, tc.lowerBetter, tc.bound); got != tc.want {
			t.Errorf("%s: verdict %q, want %q", tc.name, got, tc.want)
		}
	}
}

func TestPairable(t *testing.T) {
	run := record{host: host{Cores: 2, GOMAXPROCS: 2}, Seconds: 12}
	with := func(change func(*record)) record {
		r := run
		change(&r)
		return r
	}
	for _, tc := range []struct {
		name string
		next record
		ok   bool
	}{
		{"same settings", with(func(r *record) { r.Seed = 7 }), true},
		{"other run length", with(func(r *record) { r.Seconds = 6 }), false},
		{"traced vs untraced", with(func(r *record) { r.Trace = true }), false},
		{"other core count", with(func(r *record) { r.Cores = 4 }), false},
		{"other GOMAXPROCS", with(func(r *record) { r.GOMAXPROCS = 1 }), false},
	} {
		if err := pairable(run, tc.next); (err == nil) != tc.ok {
			t.Errorf("%s: pairable = %v, want ok %v", tc.name, err, tc.ok)
		}
	}
}
