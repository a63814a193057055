package main

import (
	"math"
	"testing"
)

func TestMedian(t *testing.T) {
	for _, tc := range []struct {
		xs   []float64
		want float64
	}{
		{nil, 0},
		{[]float64{3}, 3},
		{[]float64{5, 1, 3}, 3},
		{[]float64{4, 1, 3, 2}, 2.5},
	} {
		if got := median(tc.xs); got != tc.want {
			t.Errorf("median(%v) = %v, want %v", tc.xs, got, tc.want)
		}
	}
}

// The expected cut points are Python's statistics.quantiles(xs, n=4).
func TestQuartiles(t *testing.T) {
	for _, tc := range []struct {
		xs   []float64
		want [3]float64
	}{
		{[]float64{1, 2}, [3]float64{0.75, 1.5, 2.25}},
		{[]float64{1, 2, 3, 4, 5}, [3]float64{1.5, 3, 4.5}},
		{[]float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5}, [3]float64{2.75, 5.5, 8.25}},
		{[]float64{0.5, 0.25, 1, 4}, [3]float64{0.3125, 0.75, 3.25}},
	} {
		q1, q2, q3, ok := quartiles(tc.xs)
		got := [3]float64{q1, q2, q3}
		if !ok || got != tc.want {
			t.Errorf("quartiles(%v) = %v, %v, want %v", tc.xs, got, ok, tc.want)
		}
	}
	if _, _, _, ok := quartiles([]float64{1}); ok {
		t.Error("quartiles of one sample should not be ok")
	}
}

func TestTail(t *testing.T) {
	var xs []float64
	for i := 20; i >= 1; i-- {
		xs = append(xs, float64(i))
	}
	v, p, ok := tail(xs)
	if !ok || v != 10 || p != 50 {
		t.Errorf("tail(1..20) = %v at p%v (%v), want 10 at p50", v, p, ok)
	}
	v, p, ok = tail(xs[:11])
	if !ok || v != 10 || math.Abs(p-100.0/11) > 1e-12 {
		t.Errorf("tail(11 samples) = %v at p%v (%v), want the minimum 10 at p9.09", v, p, ok)
	}
	if _, _, ok := tail(xs[:10]); ok {
		t.Error("tail of 10 samples should not be ok")
	}
}
