package main

import (
	"math"
	"sort"
	"time"
)

// failed is the latency a failed, timed-out or wrong request counts as:
// it misses every latency limit, so it sorts above every real sample.
var failed = math.Inf(1)

// sorted returns an ascending copy of xs.
func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// percentile returns the nearest-rank p-th percentile (0 < p <= 100) of
// xs: the smallest sample with at least p% of the samples at or below
// it. Nearest rank never interpolates, so a failed request (+Inf) is
// reported as such instead of smearing into its neighbour. ok is false
// for an empty input.
func percentile(xs []float64, p float64) (v float64, ok bool) {
	if len(xs) == 0 {
		return 0, false
	}
	s := sorted(xs)
	return s[rankOf(len(s), p)], true
}

// rankOf is the 0-based nearest-rank index of the p-th percentile of n
// samples.
func rankOf(n int, p float64) int {
	r := int(math.Ceil(p/100*float64(n))) - 1
	if r < 0 {
		r = 0
	}
	if r >= n {
		r = n - 1
	}
	return r
}

// tailBeyond is how many samples must lie beyond a reported tail.
const tailBeyond = 10

// tail returns the highest percentile of xs that still has at least
// tailBeyond samples beyond it: the sample at 0-based rank
// n-1-tailBeyond, which is the (n-tailBeyond)/n quantile. Any higher
// percentile would rest on fewer than tailBeyond samples. ok is false
// when xs has too few samples for any such tail.
func tail(xs []float64) (v, pct float64, ok bool) {
	n := len(xs)
	if n <= tailBeyond {
		return 0, 0, false
	}
	s := sorted(xs)
	return s[n-1-tailBeyond], 100 * float64(n-tailBeyond) / float64(n), true
}

// median is the 50th percentile (0 for an empty input).
func median(xs []float64) float64 {
	v, _ := percentile(xs, 50)
	return v
}

// ms converts a duration to float milliseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// residual is the part of an update's downtime its reported phases do
// not explain. On the pipelined engine old-side discovery overlaps
// RESTART, so only the longer of the two is on the critical path:
// downtime - (quiesce + analysis + max(restart, discovery) + copy).
func residual(downtime, quiesce, analysis, restart, discovery, copyT time.Duration) time.Duration {
	return downtime - (quiesce + analysis + max(restart, discovery) + copyT)
}
