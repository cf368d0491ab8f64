package main

import (
	"math"
	"sort"
	"time"
)

// tailQuantiles are the candidate tail percentiles, highest first.
var tailQuantiles = []float64{0.999, 0.99, 0.9, 0.5}

// tailQuantile returns the highest candidate percentile that has at least
// ten samples beyond it in a sample of n, or 0 when n is too small for
// even the median to qualify.
func tailQuantile(n int) float64 {
	for _, q := range tailQuantiles {
		if beyond(n, q) >= 10 {
			return q
		}
	}
	return 0
}

// beyond counts the samples of n that lie strictly above the rank of the
// q-th percentile (nearest-rank definition).
func beyond(n int, q float64) int {
	return n - int(math.Ceil(q*float64(n)))
}

// quantile returns the nearest-rank q-th percentile of sorted xs (0 when
// xs is empty).
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	return sorted[i]
}

// median returns the median of xs without reordering it (0 when empty).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// latencies collects per-call durations.
type latencies []time.Duration

// summary returns the median and the tail percentile (chosen by
// tailQuantile) in microseconds, with the percentile used.
func (l latencies) summary() (p50, tail, q float64) {
	xs := l.micros()
	q = tailQuantile(len(xs))
	return quantile(xs, 0.5), quantile(xs, q), q
}

// at returns the q-th percentile in microseconds.
func (l latencies) at(q float64) float64 { return quantile(l.micros(), q) }

// micros returns the durations in microseconds, sorted.
func (l latencies) micros() []float64 {
	xs := make([]float64, len(l))
	for i, d := range l {
		xs[i] = float64(d) / 1e3
	}
	sort.Float64s(xs)
	return xs
}
