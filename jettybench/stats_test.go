package main

import "testing"

func TestHighestPercentile(t *testing.T) {
	for _, c := range []struct{ n, want int }{
		{0, 0}, {10, 0}, {11, 9}, {20, 50}, {99, 89}, {100, 90}, {101, 90}, {200, 95}, {1000, 99}, {5000, 99},
	} {
		if got := highestPercentile(c.n); got != c.want {
			t.Errorf("highestPercentile(%d) = %d, want %d", c.n, got, c.want)
		}
		// The rule itself: at least minTail samples beyond the rank.
		if p := highestPercentile(c.n); p > 0 {
			if beyond := c.n - (p*c.n+99)/100; beyond < minTail {
				t.Errorf("n=%d p%d leaves %d samples beyond", c.n, p, beyond)
			}
		}
	}
}

// TestQuartilesMatchPython pins the quartiles to Python's
// statistics.quantiles(xs, n=4) (the "exclusive" method), the spread
// definition the benchmark's stability rule uses.
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		xs     []float64
		q1, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 8.25},
		{[]float64{3, 1}, 0.5, 3.5},
		{[]float64{5, 1, 9}, 1, 9},
		{[]float64{4, 4, 4, 4}, 4, 4},
	} {
		q1, q3 := quartiles(c.xs)
		if q1 != c.q1 || q3 != c.q3 {
			t.Errorf("quartiles(%v) = %v, %v; want %v, %v", c.xs, q1, q3, c.q1, c.q3)
		}
	}
	if m := median([]float64{3, 1, 2, 10}); m != 2.5 {
		t.Errorf("median = %v, want 2.5", m)
	}
}
