package main

import (
	"fmt"
	"math"
	"sort"
	"time"
)

// quantile returns the nearest-rank q-quantile of xs: the smallest value
// with at least q·n values at or below it. NaN for an empty slice.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	c := append([]float64(nil), xs...)
	sort.Float64s(c)
	return c[nearestRank(len(c), q)]
}

// nearestRank is the index of the nearest-rank q-quantile in n sorted
// values.
func nearestRank(n int, q float64) int {
	return min(max(int(math.Ceil(q*float64(n)))-1, 0), n-1)
}

// beyond is how many of n samples lie above the nearest-rank q-quantile.
// A percentile is reported only when at least minBeyond do.
func beyond(n int, q float64) int {
	return n - 1 - nearestRank(n, q)
}

const minBeyond = 10

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

func median(xs []float64) float64 {
	c := append([]float64(nil), xs...)
	sort.Float64s(c)
	n := len(c)
	if n == 0 {
		return math.NaN()
	}
	if n%2 == 1 {
		return c[n/2]
	}
	return (c[n/2-1] + c[n/2]) / 2
}

// sample is one latency (v, ms) of an operation due at offset at into
// its phase.
type sample struct {
	at time.Duration
	v  float64
}

// windowedQuantile splits a phase of length dur into equal windows by
// when each operation was due, takes the q-quantile within each, and
// returns the median over windows. Every window must leave minBeyond
// samples beyond its quantile.
func windowedQuantile(xs []sample, q float64, dur time.Duration, windows int) (float64, error) {
	per := make([][]float64, windows)
	for _, x := range xs {
		w := min(max(int(int64(x.at)*int64(windows)/int64(dur)), 0), windows-1)
		per[w] = append(per[w], x.v)
	}
	var qs []float64
	for i, p := range per {
		if b := beyond(len(p), q); b < minBeyond {
			return math.NaN(), fmt.Errorf("window %d of %d: %d samples leave %d beyond the %g quantile, need %d",
				i+1, windows, len(p), b, q, minBeyond)
		}
		qs = append(qs, quantile(p, q))
	}
	return median(qs), nil
}

// capacityRate is the median over half-second windows of the
// completions per second of a closed-loop phase that began at start
// (nanoseconds on the recorder's clock) and lasted dur; it also returns
// each window's rate.
func capacityRate(rs []opResult, start int64, dur time.Duration) (float64, []float64) {
	const window = 500 * time.Millisecond
	n := max(int(dur/window), 1)
	counts := make([]float64, n)
	for _, r := range rs {
		if r.err != nil {
			continue
		}
		if w := int(time.Duration(r.done-start) / window); w >= 0 && w < n {
			counts[w]++
		}
	}
	for i := range counts {
		counts[i] /= window.Seconds()
	}
	return median(counts), counts
}
