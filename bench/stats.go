package bench

import (
	"math"
	"sort"
)

// Median returns the median of xs (0 for an empty slice). xs is not
// modified.
func Median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if n := len(s); n%2 == 1 {
		return s[n/2]
	} else {
		return (s[n/2-1] + s[n/2]) / 2
	}
}

// Quartiles returns the first and third quartile of xs the way
// Python's statistics.quantiles(xs, n=4) does (the "exclusive"
// method), so the repeatability numbers printed here are the ones the
// benchmark driver computes. It needs at least two values.
func Quartiles(xs []float64) (q1, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n < 2 {
		return math.NaN(), math.NaN()
	}
	at := func(i int) float64 { // i-th of 4 cut points
		j := i * (n + 1) / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := float64(i*(n+1)) - float64(j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return at(1), at(3)
}

// Spread is the interquartile range of xs as a share of its median:
// the run-to-run noise figure every bound is judged against.
func Spread(xs []float64) float64 {
	m := Median(xs)
	if len(xs) < 2 || m == 0 {
		return math.NaN()
	}
	q1, q3 := Quartiles(xs)
	return math.Abs(q3-q1) / math.Abs(m)
}

// BoundFor is the issue's rule for deriving a regression bound from
// observed spreads: twice the widest spread, never tighter than 5 %.
func BoundFor(spreads ...float64) float64 {
	b := 0.05
	for _, s := range spreads {
		if !math.IsNaN(s) && 2*s > b {
			b = 2 * s
		}
	}
	return b
}
