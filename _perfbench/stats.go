package main

import (
	"math"
	"sort"
)

// median returns the middle value of xs (the mean of the middle pair for
// an even count); 0 for an empty slice. xs is not modified.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sorted(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles returns the three cut points dividing xs into four groups,
// by the same rule as Python's statistics.quantiles(xs, n=4) (the
// default "exclusive" method), so spreads reported here agree with ones
// computed from the printed values in Python. It needs at least two
// values; fewer return the lone value (or 0) three times.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	switch len(xs) {
	case 0:
		return 0, 0, 0
	case 1:
		return xs[0], xs[0], xs[0]
	}
	s := sorted(xs)
	ld := len(s)
	m := ld + 1
	var q [3]float64
	for i := 1; i <= 3; i++ {
		// Clamp the rank to 1..ld-1 before taking delta, as Python does;
		// for tiny samples delta then falls outside 0..4 and the outer
		// cuts extrapolate past the data.
		j := min(max(i*m/4, 1), ld-1)
		delta := i*m - j*4
		q[i-1] = (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return q[0], q[1], q[2]
}

// percentile returns the nearest-rank p-th percentile of xs (0 < p <=
// 100): the smallest value with at least p% of the values at or below
// it. 0 for an empty slice.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sorted(xs)
	rank := int(math.Ceil(p / 100 * float64(len(s))))
	if rank < 1 {
		rank = 1
	}
	if rank > len(s) {
		rank = len(s)
	}
	return s[rank-1]
}

func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// nsToFloat converts nanosecond readings to float64 in the given unit
// (1e3 for microseconds, 1e6 for milliseconds).
func nsToFloat(ns []int64, unit float64) []float64 {
	out := make([]float64, len(ns))
	for i, v := range ns {
		out[i] = float64(v) / unit
	}
	return out
}
