package main

import (
	"math"
	"sort"

	"optibfs/internal/stats"
)

// sortedCopy returns xs sorted ascending without touching the input.
func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// median is the sample median (0 for no samples).
func median(xs []float64) float64 { return stats.Summarize(xs).Median }

// quartiles returns the first and third quartile of xs by the method
// Python's statistics.quantiles(xs, n=4) uses by default ("exclusive"),
// so the steadiness helper computes exactly what a Python check would.
func quartiles(xs []float64) (q1, q3 float64) {
	s := sortedCopy(xs)
	ld := len(s)
	if ld == 0 {
		return math.NaN(), math.NaN()
	}
	if ld == 1 {
		return s[0], s[0]
	}
	const n = 4
	m := ld + 1
	cut := func(i int) float64 {
		j := i * m / n
		if j < 1 {
			j = 1
		} else if j > ld-1 {
			j = ld - 1
		}
		delta := i*m - j*n
		return (s[j-1]*float64(n-delta) + s[j]*float64(delta)) / n
	}
	return cut(1), cut(3)
}

// tail returns the highest percentile of xs that still has at least ten
// samples above it, with that percentile and the sample count. Below 11
// samples it falls back to the maximum (percentile 100).
func tail(xs []float64) (value, pct float64, count int) {
	s := sortedCopy(xs)
	n := len(s)
	if n == 0 {
		return math.NaN(), 0, 0
	}
	if n < 11 {
		return s[n-1], 100, n
	}
	k := n - 11
	return s[k], 100 * float64(k+1) / float64(n), n
}

// ratio divides, returning 0 for a zero base (the report prints the
// base next to it, so a 0/0 row reads as "not exercised").
func ratio(num, base float64) float64 {
	if base == 0 {
		return 0
	}
	return num / base
}
