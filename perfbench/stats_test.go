package main

import (
	"testing"
	"time"
)

func linear(n int) *timings {
	t := &timings{}
	for i := 1; i <= n; i++ {
		t.add(time.Duration(i) * time.Millisecond)
	}
	return t
}

func TestNearestRank(t *testing.T) {
	for _, c := range []struct {
		n    int
		q    float64
		want int
	}{
		{1, 0.5, 0}, {2, 0.5, 0}, {3, 0.5, 1}, {100, 0.5, 49}, {100, 0.99, 98}, {1000, 0.99, 989}, {1001, 0.99, 990},
	} {
		if got := rank(c.n, c.q); got != c.want {
			t.Errorf("rank(%d, %g) = %d, want %d", c.n, c.q, got, c.want)
		}
	}
}

func TestQuantileTenBeyondRule(t *testing.T) {
	// 1000 samples leave exactly ten above the nearest-rank p99.
	v, err := linear(1000).quantile(0.99)
	if err != nil || v != 990 {
		t.Fatalf("p99 of 1..1000 = %v, %v; want 990", v, err)
	}
	if _, err := linear(999).quantile(0.99); err == nil {
		t.Fatal("p99 of 999 samples has nine beyond it and must be refused")
	}
	if v, err := linear(21).quantile(0.5); err != nil || v != 11 {
		t.Fatalf("median of 1..21 = %v, %v; want 11", v, err)
	}
	if _, err := linear(19).quantile(0.5); err == nil {
		t.Fatal("the median of 19 samples has nine beyond it and must be refused")
	}
	if _, err := (&timings{}).quantile(0.5); err == nil {
		t.Fatal("no samples must be refused")
	}
}

func TestTailPicksHighestSupported(t *testing.T) {
	for _, c := range []struct {
		n     int
		wantQ float64
	}{{10000, 0.999}, {5000, 0.99}, {200, 0.95}, {100, 0.9}, {20, 0.5}} {
		q, _, ok := linear(c.n).tail()
		if !ok || q != c.wantQ {
			t.Errorf("tail of %d samples = p%g (ok %v), want p%g", c.n, q*100, ok, c.wantQ*100)
		}
	}
	if _, _, ok := linear(19).tail(); ok {
		t.Error("19 samples support no percentile")
	}
}

func TestMedianIsAMeasuredValue(t *testing.T) {
	if got := median([]float64{4, 1, 3, 2}); got != 2 {
		t.Fatalf("median = %v, want the lower middle 2", got)
	}
	if got := median([]float64{5, 1, 3}); got != 3 {
		t.Fatalf("median = %v, want 3", got)
	}
}
