package main

import (
	"testing"
	"time"
)

func TestTailQuantileKeepsTenSamplesBeyond(t *testing.T) {
	for _, tc := range []struct {
		n    int
		want float64
	}{
		{100000, 0.999},
		{10000, 0.999}, // exactly ten beyond p99.9
		{9999, 0.99},   // nine beyond p99.9
		{1000, 0.99},
		{999, 0.9},
		{100, 0.9},
		{20, 0.5},
		{19, 0}, // not even the median has ten beyond it
		{0, 0},
	} {
		q := tailQuantile(tc.n)
		if q != tc.want {
			t.Errorf("tailQuantile(%d) = %v, want %v", tc.n, q, tc.want)
		}
		if q != 0 && beyond(tc.n, q) < 10 {
			t.Errorf("tailQuantile(%d) = %v leaves %d samples beyond it", tc.n, q, beyond(tc.n, q))
		}
	}
}

func TestLatencySummary(t *testing.T) {
	var l latencies
	for i := 1; i <= 1000; i++ {
		l = append(l, time.Duration(i)*time.Microsecond)
	}
	p50, tail, q := l.summary()
	if p50 != 500 || q != 0.99 || tail != 990 {
		t.Errorf("summary = p50 %v, tail %v at q %v; want 500, 990 at 0.99", p50, tail, q)
	}
	if got := l.at(0.5); got != 500 {
		t.Errorf("at(0.5) = %v, want 500", got)
	}
	if p50, tail, q := (latencies{}).summary(); p50 != 0 || tail != 0 || q != 0 {
		t.Errorf("empty summary = %v %v %v, want zeros", p50, tail, q)
	}
}

func TestMedian(t *testing.T) {
	xs := []float64{3, 1, 2, 10}
	if got := median(xs); got != 2.5 {
		t.Errorf("median = %v, want 2.5", got)
	}
	if xs[0] != 3 {
		t.Error("median reordered its input")
	}
	if got := median([]float64{4, 1, 9}); got != 4 {
		t.Errorf("median = %v, want 4", got)
	}
}
