package main

import (
	"math"
	"testing"
)

func TestPercentileNearestRank(t *testing.T) {
	ten := []float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5}
	thirty := make([]float64, 30)
	for i := range thirty {
		thirty[i] = float64(30 - i)
	}
	cases := []struct {
		xs   []float64
		p    float64
		want float64
	}{
		{nil, 0.5, 0},
		{[]float64{42}, 0.9, 42},
		{ten, 0.5, 5},     // rank ⌈5⌉ = 5
		{ten, 0.9, 9},     // rank ⌈9⌉ = 9
		{ten, 0.99, 10},   // rank ⌈9.9⌉ = 10
		{ten, 0.01, 1},    // rank ⌈0.1⌉ = 1
		{thirty, 0.9, 27}, // 0.9·30 is 27.000000000000004 in floating point
		{[]float64{3, 1, 2, 4}, 0.5, 2},
	}
	for _, c := range cases {
		if got := percentile(c.xs, c.p); got != c.want {
			t.Errorf("percentile(%v, %g) = %g, want %g", c.xs, c.p, got, c.want)
		}
	}
	if ten[0] != 10 {
		t.Error("percentile sorted its input in place")
	}
}

func TestBeyond(t *testing.T) {
	for _, c := range []struct{ n, want int }{{10, 1}, {30, 3}, {160, 16}, {159, 15}, {0, 0}} {
		if got := beyond(c.n, 0.9); got != c.want {
			t.Errorf("beyond(%d, 0.9) = %d, want %d", c.n, got, c.want)
		}
	}
}

func TestMedianAndQuartiles(t *testing.T) {
	if got := median([]float64{5, 1, 3}); got != 3 {
		t.Errorf("odd median = %g, want 3", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("even median = %g, want 2.5", got)
	}
	// statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
	ten := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	if q1, q3 := quartiles(ten); q1 != 2.75 || q3 != 8.25 {
		t.Errorf("quartiles(1..10) = %g, %g, want 2.75, 8.25", q1, q3)
	}
	// statistics.quantiles([1, 2, 4, 8], n=4) == [1.25, 3.0, 7.0]
	if q1, q3 := quartiles([]float64{8, 4, 2, 1}); q1 != 1.25 || q3 != 7 {
		t.Errorf("quartiles(1,2,4,8) = %g, %g, want 1.25, 7", q1, q3)
	}
	if got, want := spread(ten), (8.25-2.75)/5.5; math.Abs(got-want) > 1e-12 {
		t.Errorf("spread(1..10) = %g, want %g", got, want)
	}
}
