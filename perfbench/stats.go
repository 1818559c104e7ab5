package main

import (
	"math"
	"sort"
)

// Dist summarizes one metric's samples: the median, the quartiles, the
// sample count, and the tail percentile the reporting rule allowed.
type Dist struct {
	N      int     `json:"n"`
	Median float64 `json:"median"`
	Q1     float64 `json:"q1"`
	Q3     float64 `json:"q3"`
	// TailPct is the percentile reported as the tail (0 when no tail
	// was asked for); Tail is its value and Beyond how many samples lie
	// above it.
	TailPct float64 `json:"tail_pct,omitempty"`
	Tail    float64 `json:"tail,omitempty"`
	Beyond  int     `json:"beyond,omitempty"`
}

// minBeyond is how many samples must lie beyond a reported tail
// percentile: a p99 over 200 samples rests on two values and is noise.
const minBeyond = 10

// summarize returns the distribution of xs with the tail percentile
// capped by the reporting rule: the requested percentile if at least
// minBeyond samples lie beyond it, else the highest percentile that has
// minBeyond samples beyond it, and never below the median.
func summarize(xs []float64, wantPct float64) Dist {
	d := Dist{N: len(xs)}
	if len(xs) == 0 {
		return d
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	d.Median = median(s)
	d.Q1, d.Q3 = quartiles(s)
	if wantPct > 0 {
		k := tailRank(len(s), wantPct)
		d.Tail = s[k-1]
		d.Beyond = len(s) - k
		d.TailPct = 100 * float64(k) / float64(len(s))
		if d.TailPct > wantPct {
			d.TailPct = wantPct
		}
	}
	return d
}

// tailRank is the 1-based nearest-rank position of the reported tail
// percentile over n sorted samples (see summarize).
func tailRank(n int, wantPct float64) int {
	k := int(math.Ceil(wantPct / 100 * float64(n)))
	if k > n-minBeyond {
		k = n - minBeyond
	}
	if mid := (n + 1) / 2; k < mid {
		k = mid
	}
	if k < 1 {
		k = 1
	}
	return k
}

// median of sorted samples (the mean of the middle two for even n).
func median(s []float64) float64 {
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles of sorted samples by the exclusive method, as Python's
// statistics.quantiles(data, n=4) computes them; a single sample is
// its own quartiles.
func quartiles(s []float64) (q1, q3 float64) {
	n := len(s)
	if n == 1 {
		return s[0], s[0]
	}
	at := func(i int) float64 {
		m := n + 1
		j := i * m / 4
		if j < 1 {
			j = 1
		} else if j > n-1 {
			j = n - 1
		}
		delta := float64(i*m - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return at(1), at(3)
}
