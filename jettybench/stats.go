package main

import (
	"math"
	"sort"
	"time"
)

// sorted returns an ascending copy of xs.
func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// quantile returns the q-quantile (0..1) of xs by linear interpolation
// between closest ranks; NaN for empty input.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := sorted(xs)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

// median is quantile(xs, 0.5).
func median(xs []float64) float64 { return quantile(xs, 0.5) }

// quartiles returns the first and third quartiles with the same
// ("exclusive") method as Python's statistics.quantiles(xs, n=4), so
// spreads computed here match the ones a reader computes from the raw
// run values. It needs at least two values.
func quartiles(xs []float64) (q1, q3 float64) {
	s := sorted(xs)
	n := len(s)
	switch n {
	case 0:
		return math.NaN(), math.NaN()
	case 1:
		return s[0], s[0]
	}
	cut := func(i int) float64 {
		m := n + 1
		j := min(max(i*m/4, 1), n-1)
		delta := float64(i*m - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return cut(1), cut(3)
}

// minTail is how many samples must lie beyond a reported high
// percentile.
const minTail = 10

// highestPercentile is the highest whole percentile of n samples that
// has at least minTail samples strictly above its rank: the tail
// percentile the benchmark may report. 0 means no tail percentile is
// supported (n <= minTail).
func highestPercentile(n int) int {
	for p := 99; p > 0; p-- {
		// Samples beyond the p-th percentile: those ranked above
		// ceil(p*n/100).
		rank := (p*n + 99) / 100
		if n-rank >= minTail {
			return p
		}
	}
	return 0
}

// ms converts a duration to float milliseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// secs converts a duration to float seconds.
func secs(d time.Duration) float64 { return d.Seconds() }
