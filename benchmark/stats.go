package main

import (
	"math"
	"slices"
	"sort"
)

// quantile returns the nearest-rank q-quantile (0 ≤ q ≤ 1) of ns, which
// it sorts in place. An empty sample yields 0.
func quantile(ns []int64, q float64) float64 {
	if len(ns) == 0 {
		return 0
	}
	slices.Sort(ns)
	return float64(ns[int(q*float64(len(ns)-1)+0.5)])
}

// medianOf returns the median of xs (0 for an empty slice) without
// reordering the caller's slice.
func medianOf(xs []float64) float64 {
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

// quartiles mirrors Python's statistics.quantiles(xs, n=4) (the
// "exclusive" method), which is what the acceptance procedure in
// README.md computes spreads with. It needs at least two values.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n < 2 {
		if n == 1 {
			return s[0], s[0], s[0]
		}
		return 0, 0, 0
	}
	cut := func(i int) float64 {
		j := i * (n + 1) / 4
		delta := i*(n+1) - j*4
		if j < 1 {
			j, delta = 1, 0
		}
		if j > n-1 {
			j, delta = n-1, 4
		}
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return cut(1), cut(2), cut(3)
}

// spreadOf is the interquartile distance as a share of the median.
func spreadOf(xs []float64) float64 {
	q1, q2, q3 := quartiles(xs)
	if q2 == 0 {
		return 0
	}
	return math.Abs(q3-q1) / math.Abs(q2)
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}
