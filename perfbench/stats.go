package main

import (
	"math"
	"sort"
)

// minBeyond is how many samples must lie beyond a percentile before the
// benchmark reports it: a p99 from 200 samples is two points, not a tail.
const minBeyond = 10

// tailLadder lists the tail percentiles the benchmark may report, highest
// first.
var tailLadder = []float64{0.999, 0.99, 0.9}

// supported reports whether q can be reported from n samples: at least
// minBeyond of them must lie beyond it.
func supported(q float64, n int) bool {
	return float64(n)*(1-q) >= minBeyond-1e-9
}

// quantileOf returns the q-quantile of sorted samples (nearest rank).
func quantileOf(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return sorted[i]
}

// summary is one timing's report: the median, the highest supported tail
// percentile, and the sample count.
type summary struct {
	N      int
	Median float64
	TailQ  float64 // 0 when no tail percentile is supported
	Tail   float64
}

func summarize(samples []float64) summary {
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	out := summary{N: len(s), Median: quantileOf(s, 0.5)}
	for _, q := range tailLadder {
		if supported(q, len(s)) {
			out.TailQ, out.Tail = q, quantileOf(s, q)
			break
		}
	}
	return out
}

// percentile returns the q-quantile of samples and whether q is supported
// by their count; an unsupported percentile is never reported.
func percentile(samples []float64, q float64) (float64, bool) {
	if !supported(q, len(samples)) {
		return math.NaN(), false
	}
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	return quantileOf(s, q), true
}

// rateWindows is how many equal windows a phase is split into for its
// rate.
const rateWindows = 48

// windowedRate splits [0, dur) seconds into rateWindows equal windows and
// returns the upper quartile over windows of weight × events per second,
// where at holds each event's offset in seconds. On a shared host, CPU
// taken by other tenants only ever lowers a window's rate, and it comes
// and goes over seconds; the upper quartile tracks the rate the code
// sustains when it has the CPUs, where the mean or the median would track
// the neighbours' load.
func windowedRate(at []float64, dur, weight float64) float64 {
	counts := make([]float64, rateWindows)
	win := dur / rateWindows
	for _, t := range at {
		if i := int(t / win); i >= 0 && i < rateWindows {
			counts[i]++
		}
	}
	for i := range counts {
		counts[i] *= weight / win
	}
	sort.Float64s(counts)
	return quantileOf(counts, 0.75)
}

func median(samples []float64) float64 {
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	return quantileOf(s, 0.5)
}

// iqr returns the distance between the first and third quartiles.
func iqr(samples []float64) float64 {
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	return quantileOf(s, 0.75) - quantileOf(s, 0.25)
}
