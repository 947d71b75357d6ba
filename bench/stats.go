package main

import (
	"math"
	"sort"
)

// quantile returns the q-quantile (0 ≤ q ≤ 1) of vals by linear
// interpolation between the two nearest order statistics — the rule
// numpy's default and spreadsheet PERCENTILE use. vals need not be
// sorted and is not modified. An empty input yields NaN.
func quantile(vals []float64, q float64) float64 {
	if len(vals) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	if q <= 0 {
		return s[0]
	}
	if q >= 1 {
		return s[len(s)-1]
	}
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

func median(vals []float64) float64 { return quantile(vals, 0.5) }

// quartiles returns the first and third quartile exactly as Python's
// statistics.quantiles(vals, n=4) does (its default "exclusive" method,
// ported line for line, extrapolation at the ends included). The
// acceptance rule for this benchmark is stated in those terms, so the
// self-check must compute the same numbers. It needs two values or more.
func quartiles(vals []float64) (q1, q3 float64) {
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	m := len(s)
	if m < 2 {
		return math.NaN(), math.NaN()
	}
	const n = 4
	cut := func(i int) float64 {
		j := i * (m + 1) / n
		if j < 1 {
			j = 1
		}
		if j > m-1 {
			j = m - 1
		}
		delta := i*(m+1) - j*n
		return (s[j-1]*float64(n-delta) + s[j]*float64(delta)) / n
	}
	return cut(1), cut(3)
}

// spread is the interquartile distance as a share of the median — the
// number the acceptance rule compares with a metric's bound.
func spread(vals []float64) float64 {
	q1, q3 := quartiles(vals)
	m := median(vals)
	if m == 0 {
		return 0
	}
	return (q3 - q1) / math.Abs(m)
}

func maxOf(vals []float64) float64 {
	m := math.Inf(-1)
	for _, v := range vals {
		if v > m {
			m = v
		}
	}
	return m
}
