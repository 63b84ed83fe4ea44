// Package stats holds the order statistics the benchmark reports and
// the steadiness tool checks them with.
package stats

import (
	"fmt"
	"math"
	"sort"
)

// minBeyond is the number of samples that must lie above a reported
// percentile; a percentile with fewer is a statement about a handful
// of outliers, not about the distribution.
const minBeyond = 10

// Percentile returns the nearest-rank p-th percentile of xs (0 < p <
// 100) and the number of samples above its rank. It refuses when
// fewer than minBeyond samples lie beyond the rank.
func Percentile(xs []float64, p float64) (value float64, beyond int, err error) {
	n := len(xs)
	if n == 0 || p <= 0 || p >= 100 {
		return 0, 0, fmt.Errorf("percentile p%g of %d samples: undefined", p, n)
	}
	rank := int(math.Ceil(p / 100 * float64(n)))
	beyond = n - rank
	if beyond < minBeyond {
		return 0, beyond, fmt.Errorf("percentile p%g of %d samples: only %d beyond it, need %d", p, n, beyond, minBeyond)
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s[rank-1], beyond, nil
}

// Median returns the middle value of xs (mean of the two middle
// values for even counts); 0 for no samples.
func Median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

// Quartiles returns Q1, median and Q3 with the same "exclusive"
// interpolation as Python's statistics.quantiles(xs, n=4), which is
// what the acceptance check of BENCHMARK.json spreads uses.
func Quartiles(xs []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return 0, 0, 0
	}
	if n == 1 {
		return s[0], s[0], s[0]
	}
	q := func(i int) float64 {
		// statistics.quantiles "exclusive": position j = i·(n+1)/4.
		j := float64(i) * float64(n+1) / 4
		lo := int(math.Floor(j))
		frac := j - float64(lo)
		if lo < 1 {
			return s[0]
		}
		if lo >= n {
			return s[n-1]
		}
		return s[lo-1] + frac*(s[lo]-s[lo-1])
	}
	return q(1), q(2), q(3)
}
