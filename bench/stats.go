package main

import (
	"math"
	"sort"
)

// median returns the middle value of xs (mean of the two middle values for
// an even count); NaN when empty. xs is not modified.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := sorted(xs)
	mid := len(s) / 2
	if len(s)%2 == 1 {
		return s[mid]
	}
	return (s[mid-1] + s[mid]) / 2
}

// quartiles returns the first and third quartile the way Python's
// statistics.quantiles(xs, n=4) does (the "exclusive" method), because
// that is how the driver computes the run-to-run spread. Fewer than two
// values have no spread: both quartiles are the value itself.
func quartiles(xs []float64) (q1, q3 float64) {
	n := len(xs)
	if n == 0 {
		return math.NaN(), math.NaN()
	}
	if n == 1 {
		return xs[0], xs[0]
	}
	s := sorted(xs)
	at := func(i int) float64 {
		j := i * (n + 1) / 4
		if j < 1 {
			j = 1
		} else if j > n-1 {
			j = n - 1
		}
		delta := float64(i*(n+1) - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return at(1), at(3)
}

// percentile returns the p-quantile (0 < p <= 1) of ascending clock
// readings in whole nanoseconds. A reading v stands for a time somewhere in
// [v-0.5, v+0.5), so the quantile is interpolated inside the run of equal
// readings it falls in — the way a quantile is read off a histogram. A
// nearest-rank quantile of several hundred thousand sub-microsecond
// readings is the same integer on every run; this one keeps the digits the
// sample holds.
func percentile(ascending []float64, p float64) float64 {
	n := len(ascending)
	if n == 0 {
		return math.NaN()
	}
	rank := p * float64(n) // samples at or below the quantile
	k := int(math.Ceil(rank)) - 1
	if k < 0 {
		k = 0
	}
	v := ascending[k]
	lo := sort.SearchFloat64s(ascending, v)
	hi := lo + sort.SearchFloat64s(ascending[lo:], math.Nextafter(v, math.Inf(1)))
	return v - 0.5 + (rank-float64(lo))/float64(hi-lo)
}

func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}
