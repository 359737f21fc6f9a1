// Package quantile holds the one shared percentile definition every
// latency-reporting surface uses: nearest-rank over an ascending sort,
// idx = ceil(p*n)-1 computed as int(p*n)-1 clamped to [0, n-1]. The serve
// runtime's per-tick Stats and the load drivers (cmd/serve, cmd/loadgen)
// all read their p50/p99 through it, so a reported percentile means the
// same thing everywhere.
package quantile

import (
	"sort"
	"time"
)

// Durations returns the p-quantile (0 < p <= 1) of vals, or 0 when empty.
// The input is not modified; a sorted copy is made.
func Durations(vals []time.Duration, p float64) time.Duration {
	if len(vals) == 0 {
		return 0
	}
	sorted := make([]time.Duration, len(vals))
	copy(sorted, vals)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	return SortedDurations(sorted, p)
}

// SortedDurations reads the p-quantile from an ascending-sorted slice
// without copying. Use it on hot paths that keep their samples sorted.
func SortedDurations(sorted []time.Duration, p float64) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	return sorted[rank(len(sorted), p)]
}

// Float64s returns the p-quantile (0 < p <= 1) of vals, or 0 when empty.
// The input is not modified; a sorted copy is made.
func Float64s(vals []float64, p float64) float64 {
	if len(vals) == 0 {
		return 0
	}
	sorted := make([]float64, len(vals))
	copy(sorted, vals)
	sort.Float64s(sorted)
	return sorted[rank(len(sorted), p)]
}

// rank maps a quantile onto a slice index, nearest-rank convention.
func rank(n int, p float64) int {
	idx := int(p*float64(n)) - 1
	if idx < 0 {
		idx = 0
	}
	if idx >= n {
		idx = n - 1
	}
	return idx
}
