package main

import (
	"math"
	"sort"
)

// metric is one reported number. Samples is the number of observations
// behind Value: latency samples for a timing, the divisor's count for a
// ratio, 1 for a single reading.
type metric struct {
	Name    string  `json:"name"`
	Unit    string  `json:"unit"`
	Value   float64 `json:"value"`
	Samples int     `json:"samples"`
}

// percentile returns the nearest-rank p-th percentile (0 < p <= 1) of an
// ascending slice, 0 for an empty one.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(p*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	return sorted[i]
}

// tailSupported is the sample-count rule for a gated tail percentile: at
// least ten samples must lie beyond it, or the run to run noise of the
// percentile is the noise of a handful of outliers.
func tailSupported(n int, p float64) bool {
	return float64(n)*(1-p) >= 10
}

// median of an unsorted slice (0 when empty).
func median(v []float64) float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	switch {
	case n == 0:
		return 0
	case n%2 == 1:
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles returns the first and third quartile the way Python's
// statistics.quantiles(v, n=4) does (the exclusive method), which is what
// the acceptance check of this benchmark uses. Fewer than two values have
// no spread: both quartiles are the value itself.
func quartiles(v []float64) (q1, q3 float64) {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return 0, 0
	}
	if n == 1 {
		return s[0], s[0]
	}
	cut := func(i int) float64 {
		m := n + 1
		j := i * m / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := float64(i*m - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return cut(1), cut(3)
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}
