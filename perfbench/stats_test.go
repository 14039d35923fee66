package main

import (
	"math"
	"testing"
)

func TestMedian(t *testing.T) {
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("odd median = %v, want 2", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("even median = %v, want 2.5", got)
	}
	if !math.IsNaN(median(nil)) {
		t.Error("median of nothing should be NaN")
	}
}

func ramp(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[n-1-i] = float64(i + 1) // descending: tail must sort
	}
	return xs
}

func TestTailPercentileRule(t *testing.T) {
	cases := []struct {
		n      int
		pct    float64
		value  float64
		wantOK bool
	}{
		{n: 10000, pct: 99.9, value: 9990, wantOK: true}, // 10 beyond p99.9
		{n: 9999, pct: 99, value: 9900, wantOK: true},    // p99.9 leaves 9
		{n: 1000, pct: 99, value: 990, wantOK: true},     // exactly 10 beyond
		{n: 999, pct: 95, value: 950, wantOK: true},      // p99 leaves 9
		{n: 200, pct: 95, value: 190, wantOK: true},
		{n: 100, pct: 90, value: 90, wantOK: true},
		{n: 40, pct: 75, value: 30, wantOK: true},
		{n: 20, pct: 50, value: 10, wantOK: true},
		{n: 19, wantOK: false},
		{n: 0, wantOK: false},
	}
	for _, c := range cases {
		pct, v, ok := tail(ramp(c.n))
		if ok != c.wantOK || (ok && (pct != c.pct || v != c.value)) {
			t.Errorf("n=%d: tail = (p%v, %v, %v), want (p%v, %v, %v)", c.n, pct, v, ok, c.pct, c.value, c.wantOK)
		}
	}
}
