package main

import (
	"math"
	"slices"
)

func sortInts(s []int64) { slices.Sort(s) }

// quantile interpolates linearly between the closest ranks of sorted s;
// it returns 0 for an empty sample.
func quantile[T int64 | float64](s []T, q float64) float64 {
	if len(s) == 0 {
		return 0
	}
	pos := q * float64(len(s)-1)
	i := int(math.Floor(pos))
	if i+1 >= len(s) {
		return float64(s[len(s)-1])
	}
	frac := pos - float64(i)
	return float64(s[i])*(1-frac) + float64(s[i+1])*frac
}

// median sorts a copy of s and returns its middle value.
func median(s []int64) float64 {
	c := slices.Clone(s)
	slices.Sort(c)
	return quantile(c, 0.5)
}

// ratio is a/b, or 0 when b is 0 (a layer that did no work).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// quantileF is quantile over a sorted copy of s.
func quantileF(s []float64, q float64) float64 {
	c := slices.Clone(s)
	slices.Sort(c)
	return quantile(c, q)
}

// Noise from outside the benchmark (other guests taking the host's CPUs,
// other tenants of its disk) only ever slows a window down.  So a run
// reports the fast side of its windows: the first quartile of the
// windows' latency percentiles, and the third quartile of their
// throughputs.  A change to the program moves every window, the fast
// ones too.
const (
	fastLatencyQ    = 0.25
	fastThroughputQ = 0.75
)

func samples(ws [][]int64) int {
	n := 0
	for _, w := range ws {
		n += len(w)
	}
	return n
}

// summarizeWindows reports the fast quartile over windows of each
// window's p50, p90 and p99, in µs, with the total sample count; empty
// windows are skipped.  Each window must be sorted.
func summarizeWindows(ws [][]int64) pct {
	var p50s, p90s, p99s []float64
	for _, w := range ws {
		if len(w) > 0 {
			p50s = append(p50s, quantile(w, 0.5))
			p90s = append(p90s, quantile(w, 0.9))
			p99s = append(p99s, quantile(w, 0.99))
		}
	}
	return pct{
		p50: quantileF(p50s, fastLatencyQ) / 1e3,
		p90: quantileF(p90s, fastLatencyQ) / 1e3,
		p99: quantileF(p99s, fastLatencyQ) / 1e3,
		n:   samples(ws),
	}
}
