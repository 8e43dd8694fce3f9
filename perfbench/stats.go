package main

import "sort"

// tailBeyond is how many samples must lie above the value reported as
// the tail latency: the tail is the highest percentile that still has
// this many samples beyond it, so its estimate never rests on a handful
// of outliers.
const tailBeyond = 10

// median returns the middle value of xs (the mean of the two middle
// values for an even count); 0 for an empty slice. xs is not modified.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sortedCopy(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// tail returns the highest-percentile sample that still has tailBeyond
// samples above it, and that percentile: with n samples sorted
// ascending it is the sample at rank n-tailBeyond, the (n-10)/n
// quantile. ok is false when there are too few samples (n <= 10).
func tail(xs []float64) (value, percentile float64, ok bool) {
	n := len(xs)
	if n <= tailBeyond {
		return 0, 0, false
	}
	s := sortedCopy(xs)
	rank := n - tailBeyond // 1-based rank of the reported sample
	return s[rank-1], 100 * float64(rank) / float64(n), true
}

func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}
