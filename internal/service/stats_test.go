package service

import "testing"

// TestHistogramPercentileNearestRank pins percentile to the nearest-rank
// definition: the p-quantile of count observations is the ⌈p·count⌉-th
// smallest, and a rank that falls among the overflowed ones reports max.
func TestHistogramPercentileNearestRank(t *testing.T) {
	upTo := func(k int64) []int64 {
		vs := make([]int64, k)
		for i := range vs {
			vs[i] = int64(i) + 1
		}
		return vs
	}
	cases := []struct {
		name     string
		samples  []int64
		p50, p99 int64
	}{
		{"1 sample", upTo(1), 1, 1},
		{"2 samples", upTo(2), 1, 2},
		{"3 samples", upTo(3), 2, 3},
		{"10 samples", upTo(10), 5, 10},
		{"150 samples", upTo(150), 75, 149},
		{"P99 in the overflow", []int64{1, 2, latCap + 5, latCap + 10}, 2, latCap + 10},
		{"P50 in the overflow", []int64{1, latCap + 5, latCap + 10}, latCap + 10, latCap + 10},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var h histogram
			// Observed in descending order: the result must not depend on it.
			for i := len(tc.samples) - 1; i >= 0; i-- {
				h.observe(tc.samples[i])
			}
			if got := h.percentile(0.5); got != tc.p50 {
				t.Errorf("P50 = %d, want %d", got, tc.p50)
			}
			if got := h.percentile(0.99); got != tc.p99 {
				t.Errorf("P99 = %d, want %d", got, tc.p99)
			}
		})
	}
	var empty histogram
	if got := empty.percentile(0.5); got != 0 {
		t.Errorf("empty histogram: P50 = %d, want 0", got)
	}
}
