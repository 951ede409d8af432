package main

import (
	"math"
	"testing"
)

func seq(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(n - i) // descending, so sorting is exercised
	}
	return xs
}

func TestMedian(t *testing.T) {
	for _, tc := range []struct {
		xs   []float64
		want float64
	}{
		{[]float64{3}, 3},
		{[]float64{3, 1, 2}, 2},
		{[]float64{4, 1, 3, 2}, 2.5},
	} {
		if got := median(tc.xs); got != tc.want {
			t.Errorf("median(%v) = %g, want %g", tc.xs, got, tc.want)
		}
	}
	if !math.IsNaN(median(nil)) {
		t.Error("median of no samples should be NaN")
	}
}

// TestQuartilesMatchPython pins quartiles to the values Python's
// statistics.quantiles(xs, n=4) prints for the same inputs.
func TestQuartilesMatchPython(t *testing.T) {
	for _, tc := range []struct {
		xs   []float64
		want [3]float64
	}{
		{seq(10), [3]float64{2.75, 5.5, 8.25}},
		{[]float64{5, 1, 4, 2, 3}, [3]float64{1.5, 3, 4.5}},
		{[]float64{1, 2}, [3]float64{0.75, 1.5, 2.25}},
		{[]float64{3, 1, 2}, [3]float64{1, 2, 3}},
	} {
		q1, q2, q3, err := quartiles(tc.xs)
		if err != nil {
			t.Fatal(err)
		}
		if got := [3]float64{q1, q2, q3}; got != tc.want {
			t.Errorf("quartiles(%v) = %v, want %v", tc.xs, got, tc.want)
		}
	}
	if _, _, _, err := quartiles([]float64{1}); err == nil {
		t.Error("quartiles of one sample should fail")
	}
}

// TestPercentileRefusesThinTails pins the selection rule: a tail
// percentile needs at least ten samples beyond it, so p99 is refused
// below 1,000 samples, p90 below 100 and p75 below 40.
func TestPercentileRefusesThinTails(t *testing.T) {
	for _, tc := range []struct {
		p      float64
		enough int
		want   float64 // value at exactly enough samples of seq
	}{
		{99, 1000, 990},
		{90, 100, 90},
		{75, 40, 30},
	} {
		got, err := percentile(seq(tc.enough), tc.p)
		if err != nil || got != tc.want {
			t.Errorf("p%g of %d samples = %g, %v; want %g", tc.p, tc.enough, got, err, tc.want)
		}
		if _, err := percentile(seq(tc.enough-1), tc.p); err == nil {
			t.Errorf("p%g of %d samples should be refused", tc.p, tc.enough-1)
		}
	}
	if got, err := percentile(seq(3), 50); err != nil || got != 2 {
		t.Errorf("p50 of 3 samples = %g, %v", got, err)
	}
}

func TestTailPercentile(t *testing.T) {
	for _, tc := range []struct {
		n    int
		want float64
	}{
		{10000, 99.9}, {9999, 99}, {1000, 99}, {999, 95}, {200, 95},
		{100, 90}, {99, 75}, {40, 75}, {39, 0},
	} {
		if got := tailPercentile(tc.n); got != tc.want {
			t.Errorf("tailPercentile(%d) = %g, want %g", tc.n, got, tc.want)
		}
	}
}

// TestColdTailIsTheSelection pins serve-cold's reported tail to the
// highest percentile its fewest requests support.
func TestColdTailIsTheSelection(t *testing.T) {
	if got := tailPercentile(coldMinOps); got != coldTail {
		t.Fatalf("%d requests support p%g, serve-cold reports p%d", coldMinOps, got, coldTail)
	}
}
