package main

import (
	"math"
	"testing"
)

func TestTailPermilleNeedsTenBeyond(t *testing.T) {
	cases := []struct{ n, want int }{
		{0, 0}, {19, 0}, {20, 500}, {99, 500}, {100, 900}, {999, 900},
		{1000, 990}, {9999, 990}, {10000, 999}, {1 << 20, 999},
	}
	for _, c := range cases {
		if got := tailPermille(c.n); got != c.want {
			t.Errorf("tailPermille(%d) = %d, want %d", c.n, got, c.want)
		}
	}
}

func TestTailReportsP99OnlyFromAThousandSamples(t *testing.T) {
	xs := make([]float64, 1000)
	for i := range xs {
		xs[len(xs)-1-i] = float64(i + 1) // 1..1000, reversed
	}
	pm, v := tail(xs)
	if pm != 990 || v != 990 {
		t.Fatalf("tail of 1..1000 = p%v %v, want p99 990", float64(pm)/10, v)
	}
	// Exactly ten samples lie beyond the reported value.
	beyond := 0
	for _, x := range xs {
		if x > v {
			beyond++
		}
	}
	if beyond != minBeyond {
		t.Fatalf("%d samples beyond p99, want %d", beyond, minBeyond)
	}
	if pm, v := tail(xs[:999]); pm != 900 || v != 900 {
		t.Fatalf("tail of 999 samples = p%v %v, want p90 900", float64(pm)/10, v)
	}
	if pm, v := tail(xs[:5]); pm != 0 || !math.IsNaN(v) {
		t.Fatalf("tail of 5 samples = p%v %v, want none", float64(pm)/10, v)
	}
}

func TestMedianEvenOddAndUnsorted(t *testing.T) {
	if m := median([]float64{3, 1, 2}); m != 2 {
		t.Fatalf("median odd = %v", m)
	}
	xs := []float64{4, 1, 3, 2}
	if m := median(xs); m != 2.5 {
		t.Fatalf("median even = %v", m)
	}
	if xs[0] != 4 {
		t.Fatal("median reordered its input")
	}
}

func TestSegmentedTailTakesTheMedianSegment(t *testing.T) {
	// Three segments of 1,000 whose p99s are 10, 20 and 1000: the median
	// segment wins, so one noisy segment does not set the figure.
	var xs []float64
	for _, top := range []float64{10, 1000, 20} {
		for i := 0; i < 1000; i++ {
			xs = append(xs, top*float64(i+1)/1000)
		}
	}
	pm, v := segmentedTail(xs)
	if pm != 990 || v != 19.8 {
		t.Fatalf("segmentedTail = p%v %v, want p99 19.8", float64(pm)/10, v)
	}
	if xs[0] != 0.01 {
		t.Fatal("segmentedTail reordered its input")
	}
	// Under two segments' worth it is the plain tail.
	ys := make([]float64, 1999)
	for i := range ys {
		ys[i] = float64(i + 1)
	}
	if pm, v := segmentedTail(ys); pm != 990 || v != 1980 {
		t.Fatalf("segmentedTail of 1..1999 = p%v %v, want p99 1980", float64(pm)/10, v)
	}
}
