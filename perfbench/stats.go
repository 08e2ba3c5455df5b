package main

import (
	"fmt"
	"math"
	"sort"
	"time"
)

// minBeyond is the sampling rule every printed percentile obeys: at
// least this many samples must lie above it, or it is not printed.
const minBeyond = 10

// rank returns the nearest-rank index (0-based) of quantile q in n
// sorted samples: the smallest index whose cumulative share reaches q.
func rank(n int, q float64) int {
	r := int(math.Ceil(q*float64(n))) - 1
	if r < 0 {
		r = 0
	}
	return r
}

// beyond is how many of n samples lie above the nearest-rank
// q-percentile.
func beyond(n int, q float64) int { return n - 1 - rank(n, q) }

// timings collects durations of one kind of operation.
type timings struct {
	ms []float64
}

func (t *timings) add(d time.Duration) { t.ms = append(t.ms, float64(d.Nanoseconds())/1e6) }

func (t *timings) merge(o *timings) { t.ms = append(t.ms, o.ms...) }

func (t *timings) n() int { return len(t.ms) }

// quantile returns the nearest-rank q-percentile in milliseconds, or an
// error when fewer than minBeyond samples lie above it.
func (t *timings) quantile(q float64) (float64, error) {
	n := len(t.ms)
	if n == 0 || beyond(n, q) < minBeyond {
		return 0, fmt.Errorf("p%g needs %d samples beyond it, %d samples give %d",
			q*100, minBeyond, n, max(0, beyond(n, q)))
	}
	s := append([]float64(nil), t.ms...)
	sort.Float64s(s)
	return s[rank(n, q)], nil
}

// tail returns the highest of the usual percentiles the samples
// support under the ten-beyond rule, with its quantile; ok is false
// when not even the median is supported.
func (t *timings) tail() (q, v float64, ok bool) {
	for _, q := range []float64{0.999, 0.99, 0.95, 0.9, 0.5} {
		if v, err := t.quantile(q); err == nil {
			return q, v, true
		}
	}
	return 0, 0, false
}

// mean returns the arithmetic mean in milliseconds (0 without samples).
func (t *timings) mean() float64 {
	if len(t.ms) == 0 {
		return 0
	}
	s := 0.0
	for _, v := range t.ms {
		s += v
	}
	return s / float64(len(t.ms))
}

// total is the sum of the samples in milliseconds.
func (t *timings) total() float64 {
	if t == nil {
		return 0
	}
	return t.mean() * float64(t.n())
}

// median of plain values (setup and recovery repeats); the lower
// middle for an even count, so the result is always a measured value.
func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return s[(len(s)-1)/2]
}
