package main

import "sort"

// sorted returns an ascending copy of xs.
func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// median returns the middle value of xs (the mean of the two middle
// values for an even count), or 0 for no samples.
func median(xs []float64) float64 {
	s := sorted(xs)
	n := len(s)
	switch {
	case n == 0:
		return 0
	case n%2 == 1:
		return s[n/2]
	default:
		return (s[n/2-1] + s[n/2]) / 2
	}
}

// quartiles returns the three cut points that split xs into four groups,
// computed exactly as Python's statistics.quantiles(xs, n=4) does with
// its default exclusive method.  It needs at least two samples.
func quartiles(xs []float64) (q1, q2, q3 float64, ok bool) {
	s := sorted(xs)
	ld := len(s)
	if ld < 2 {
		return 0, 0, 0, false
	}
	const n = 4
	m := ld + 1
	var q [n - 1]float64
	for i := 1; i < n; i++ {
		j := i * m / n
		if j < 1 {
			j = 1
		} else if j > ld-1 {
			j = ld - 1
		}
		delta := i*m - j*n
		q[i-1] = (s[j-1]*float64(n-delta) + s[j]*float64(delta)) / n
	}
	return q[0], q[1], q[2], true
}

// tailBeyond is how many samples must lie beyond a reported tail
// percentile for it to mean anything.
const tailBeyond = 10

// tail returns the value at the highest percentile of xs that still has
// tailBeyond samples above it, with that percentile.  It needs more than
// tailBeyond samples.
func tail(xs []float64) (value, percentile float64, ok bool) {
	s := sorted(xs)
	rank := len(s) - tailBeyond // 1-based rank with tailBeyond samples above
	if rank < 1 {
		return 0, 0, false
	}
	return s[rank-1], 100 * float64(rank) / float64(len(s)), true
}
