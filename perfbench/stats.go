package main

import (
	"math"
	"sort"
)

// median returns the median of xs (the mean of the two middle values for an
// even count), or NaN for an empty slice.
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

func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// tailLadder lists the percentiles tail considers, highest first.
var tailLadder = []float64{99.9, 99, 95, 90, 75, 50}

// tail applies the benchmark's percentile rule: it returns the highest
// percentile of the ladder that leaves at least 10 samples beyond its
// nearest-rank value, with that value. ok is false when even the median
// leaves fewer than 10 samples beyond it.
func tail(xs []float64) (pct, value float64, ok bool) {
	n := len(xs)
	s := sorted(xs)
	for _, p := range tailLadder {
		rank := int(math.Ceil(p*float64(n)/100 - 1e-9))
		if rank < 1 || n-rank < 10 {
			continue
		}
		return p, s[rank-1], true
	}
	return 0, 0, false
}
