package main

import (
	"errors"
	"testing"
	"time"
)

func TestMedianOddEven(t *testing.T) {
	cases := []struct {
		in   []float64
		want float64
	}{
		{nil, 0},
		{[]float64{4}, 4},
		{[]float64{3, 1, 2}, 2},
		// Even counts average the middle pair instead of truncating to
		// the upper or lower one.
		{[]float64{4, 1, 3, 2}, 2.5},
		{[]float64{10, 20}, 15},
	}
	for _, c := range cases {
		if got := median(c.in); got != c.want {
			t.Errorf("median(%v) = %v, want %v", c.in, got, c.want)
		}
	}
	in := []float64{3, 1, 2}
	median(in)
	if in[0] != 3 || in[1] != 1 || in[2] != 2 {
		t.Errorf("median reordered its input: %v", in)
	}
}

// The expected values are what Python's statistics.quantiles(xs, n=4)
// prints for the same inputs.
func TestQuartilesMatchPython(t *testing.T) {
	cases := []struct {
		in         []float64
		q1, q2, q3 float64
	}{
		{[]float64{1, 2, 3, 4}, 1.25, 2.5, 3.75},
		{[]float64{1, 2, 3, 4, 5}, 1.5, 3, 4.5},
		{[]float64{5, 1, 4, 2, 3, 6, 7, 8, 9, 10}, 2.75, 5.5, 8.25},
		{[]float64{2, 1}, 0.75, 1.5, 2.25},
	}
	for _, c := range cases {
		q1, q2, q3 := quartiles(c.in)
		if q1 != c.q1 || q2 != c.q2 || q3 != c.q3 {
			t.Errorf("quartiles(%v) = %v %v %v, want %v %v %v", c.in, q1, q2, q3, c.q1, c.q2, c.q3)
		}
		if q2 != median(c.in) {
			t.Errorf("quartiles(%v) middle cut %v != median %v", c.in, q2, median(c.in))
		}
	}
}

func TestPercentileNearestRank(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(100 - i) // 100..1, unsorted on purpose
	}
	for _, c := range []struct{ p, want float64 }{{50, 50}, {99, 99}, {100, 100}, {1, 1}, {0.1, 1}} {
		if got := percentile(xs, c.p); got != c.want {
			t.Errorf("percentile(1..100, %v) = %v, want %v", c.p, got, c.want)
		}
	}
	// Even count: p50 is the lower middle value under nearest rank.
	if got := percentile([]float64{1, 2, 3, 4}, 50); got != 2 {
		t.Errorf("percentile({1,2,3,4}, 50) = %v, want 2", got)
	}
	if got := percentile(nil, 99); got != 0 {
		t.Errorf("percentile(nil) = %v, want 0", got)
	}
}

// cpuTime counts the processor time a function uses, not the time it
// waits: a sleep costs next to nothing, a busy loop about its length.
func TestCPUTimeCountsWorkNotWaiting(t *testing.T) {
	slept, err := cpuTime(func() error { time.Sleep(100 * time.Millisecond); return nil })
	if err != nil || slept > 0.02 {
		t.Errorf("sleeping 0.1 s used %v s of processor time (err %v), want under 0.02", slept, err)
	}
	x := uint64(1)
	busy, _ := cpuTime(func() error {
		for end := now() + 100e6; now() < end; {
			x = x*6364136223846793005 + 1442695040888963407
		}
		return nil
	})
	if busy < 0.05 || busy > 0.5 {
		t.Errorf("spinning for 0.1 s used %v s of processor time, want about 0.1 (x %d)", busy, x)
	}
	errFn := errors.New("fn failed")
	if _, err := cpuTime(func() error { return errFn }); err != errFn {
		t.Errorf("cpuTime dropped fn's error: %v", err)
	}
}
