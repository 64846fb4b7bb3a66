// Order statistics. Every quantile carries the number of samples it was
// taken over, so a printed latency line always states its sample count.

package main

import "sort"

// quantile is one order statistic and the sample count behind it.
type quantile struct {
	Value float64
	N     int
}

// quantileOf returns the q-quantile of samples by linear interpolation
// between closest ranks (the same rule as Python's inclusive method).
// samples is sorted in place. An empty set yields Value 0 with N 0.
func quantileOf(samples []float64, q float64) quantile {
	sort.Float64s(samples)
	n := len(samples)
	if n == 0 {
		return quantile{}
	}
	pos := q * float64(n-1)
	lo := int(pos)
	hi := lo
	if lo+1 < n {
		hi = lo + 1
	}
	frac := pos - float64(lo)
	return quantile{Value: samples[lo]*(1-frac) + samples[hi]*frac, N: n}
}

// quartiles returns the first quartile, median and third quartile the way
// Python's statistics.quantiles(values, n=4) does (exclusive method), which
// is what the acceptance rule for run-to-run spread is written against.
func quartiles(values []float64) (q1, med, q3 float64) {
	s := append([]float64(nil), values...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return 0, 0, 0
	}
	if n == 1 {
		return s[0], s[0], s[0]
	}
	at := func(k int) float64 { // k-th of 4 cut points
		pos := float64(k) * float64(n+1) / 4 // 1-based rank
		j := int(pos)
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		frac := pos - float64(j)
		return s[j-1] + (s[j]-s[j-1])*frac
	}
	return at(1), at(2), at(3)
}

// ratio is num/den, or 0 when there is nothing to divide by.
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}
