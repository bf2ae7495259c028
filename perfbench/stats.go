package main

import "sort"

// median returns the middle value of xs (the mean of the two middle
// values for an even count), 0 for an empty slice.
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

func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// tail returns the highest percentile that has at least minBeyond
// samples above it, and the value there: the (minBeyond+1)-th largest
// sample, which sits at percentile 100·(n−minBeyond)/n. ok is false when
// there are not more than minBeyond samples.
func tail(xs []float64, minBeyond int) (pct, value float64, ok bool) {
	n := len(xs)
	if n <= minBeyond {
		return 0, 0, false
	}
	s := sortedCopy(xs)
	return 100 * float64(n-minBeyond) / float64(n), s[n-minBeyond-1], true
}

// ratio returns num/den, or 0 when den is 0.
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}
