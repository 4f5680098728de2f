package main

import (
	"math"
	"sort"
)

// tailLadder lists the percentiles the benchmark may report as a tail, in
// per-mille, highest first.
var tailLadder = []int{999, 990, 900, 500}

// minBeyond is how many samples must lie beyond a reported percentile.
const minBeyond = 10

// tailPermille returns the highest percentile (in per-mille) of tailLadder
// that has at least minBeyond of n samples beyond it, or 0 when even the
// median has too few. p99 therefore needs at least 1,000 samples.
func tailPermille(n int) int {
	for _, pm := range tailLadder {
		if n*(1000-pm) >= minBeyond*1000 {
			return pm
		}
	}
	return 0
}

// percentile returns the nearest-rank percentile (pm in per-mille) of xs,
// which it sorts in place. It returns NaN for an empty slice.
func percentile(xs []float64, pm int) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	sort.Float64s(xs)
	rank := (pm*len(xs) + 999) / 1000 // ceil(pm/1000 * n)
	if rank < 1 {
		rank = 1
	}
	return xs[rank-1]
}

// tail reports the highest percentile of xs that the sample count supports
// (see tailPermille) and its value. xs is sorted in place.
func tail(xs []float64) (pm int, v float64) {
	pm = tailPermille(len(xs))
	if pm == 0 {
		return 0, math.NaN()
	}
	return pm, percentile(xs, pm)
}

// median returns the median of xs (the mean of the middle two for an even
// count) without reordering xs. It returns NaN for an empty slice.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

// mean returns the arithmetic mean of xs (NaN when empty).
func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// tailSegment is the number of consecutive samples one tail estimate uses:
// enough for p99 under tailPermille.
const tailSegment = 1000

// segmentedTail splits xs (in arrival order) into consecutive segments of
// at least tailSegment samples, takes each segment's tail, and returns the
// median of those tails with the percentile they share. A burst of
// machine noise that hits one segment then moves the figure less than it
// moves one tail over every sample. Fewer than 2*tailSegment samples make
// one segment. xs is not modified.
func segmentedTail(xs []float64) (pm int, v float64) {
	k := max(1, len(xs)/tailSegment)
	size := len(xs) / k
	var tails []float64
	for i := 0; i < k; i++ {
		hi := (i + 1) * size
		if i == k-1 {
			hi = len(xs)
		}
		seg := append([]float64(nil), xs[i*size:hi]...)
		var t float64
		pm, t = tail(seg)
		tails = append(tails, t)
	}
	return pm, median(tails)
}
