package main

import (
	"math"
	"sort"
	"time"
)

// sorted returns an ascending copy of v.
func sorted(v []float64) []float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return s
}

// percentile is the nearest-rank percentile (0 < p ≤ 100) of an
// ascending sample; 0 when the sample is empty, like every metric of
// a layer that was not exercised.
func percentile(asc []float64, p float64) float64 {
	if len(asc) == 0 {
		return 0
	}
	rank := int(math.Ceil(p / 100 * float64(len(asc))))
	if rank < 1 {
		rank = 1
	}
	if rank > len(asc) {
		rank = len(asc)
	}
	return asc[rank-1]
}

func median(v []float64) float64 { return percentile(sorted(v), 50) }

// tailMinBeyond is how many samples must lie beyond a reported tail
// percentile for it to be more than the luck of a few outliers.
const tailMinBeyond = 10

// tailPercentile is the reporting rule for latency tails: the highest
// of the conventional percentiles that still has at least
// tailMinBeyond samples beyond it. Below 20 samples no tail above the
// median is supported and the median is returned.
func tailPercentile(n int) float64 {
	for _, perMille := range []int{999, 990, 950, 900, 750} {
		if n*(1000-perMille)/1000 >= tailMinBeyond {
			return float64(perMille) / 10
		}
	}
	return 50
}

// tail returns the supported tail percentile of v and its value.
func tail(v []float64) (p, value float64) {
	p = tailPercentile(len(v))
	return p, percentile(sorted(v), p)
}

// quartiles returns Q1, median and Q3 the way Python's
// statistics.quantiles(v, n=4) (exclusive method) does, so spreads
// printed here match the ones the acceptance driver computes.
func quartiles(v []float64) (q1, q2, q3 float64) {
	s := sorted(v)
	n := len(s)
	switch n {
	case 0:
		return math.NaN(), math.NaN(), math.NaN()
	case 1:
		return s[0], s[0], s[0]
	}
	at := func(i int) float64 { // i-th of 4 cut points
		pos := float64(i) * float64(n+1) / 4
		j := int(math.Floor(pos))
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		d := pos - float64(j)
		return s[j-1] + d*(s[j]-s[j-1])
	}
	return at(1), at(2), at(3)
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// repeatMedian runs fn until it has run for at least 0.2 s or 20 times
// (the micro-call rule of the traced run) and returns the median
// duration of one call.
func repeatMedian(fn func()) time.Duration {
	var d []float64
	begin := time.Now()
	for len(d) < 20 && (len(d) == 0 || time.Since(begin) < 200*time.Millisecond) {
		t0 := time.Now()
		fn()
		d = append(d, float64(time.Since(t0)))
	}
	return time.Duration(median(d))
}
