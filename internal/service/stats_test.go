package service

import "testing"

// fixedHistogram is histogram with all latCap buckets cut on the first
// observation, as it was before they grew on demand: the reference a grown
// histogram must summarize like.
type fixedHistogram struct{ histogram }

func (f *fixedHistogram) observe(v int64) {
	if f.buckets == nil {
		f.buckets = make([]int64, latCap)
	}
	f.histogram.observe(v)
}

// TestHistogramPercentileNearestRank pins percentile to the nearest-rank
// definition: the p-quantile of count observations is the ⌈p·count⌉-th
// smallest, and a rank that falls among the overflowed ones reports max.
// The buckets grow, doubling from latMin, to the smallest size that holds
// the largest latency below latCap, whatever the order of observation, and
// the summary equals that of fixedHistogram.
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
		{"growth to every size", []int64{0, 1023, 1024, 2500, 4095}, 1024, 4095},
		{"growth and overflow", []int64{0, 1023, 1024, 2500, 4095, latCap, 9000}, 2500, 9000},
		{"overflow only", []int64{latCap, latCap + 1}, latCap + 1, latCap + 1},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			size := 0 // the bucket count the largest latency below latCap needs
			for _, v := range tc.samples {
				for v < latCap && size <= int(v) {
					size = max(2*size, latMin)
				}
			}
			// Observed in descending and ascending order: the result must not
			// depend on it.
			for _, descending := range []bool{true, false} {
				var h histogram
				var ref fixedHistogram
				for i := range tc.samples {
					v := tc.samples[i]
					if descending {
						v = tc.samples[len(tc.samples)-1-i]
					}
					h.observe(v)
					ref.observe(v)
				}
				if got := h.percentile(0.5); got != tc.p50 {
					t.Errorf("descending %v: P50 = %d, want %d", descending, got, tc.p50)
				}
				if got := h.percentile(0.99); got != tc.p99 {
					t.Errorf("descending %v: P99 = %d, want %d", descending, got, tc.p99)
				}
				if got, want := h.summary(), ref.summary(); got != want {
					t.Errorf("descending %v: summary %+v, fixed-size reference %+v", descending, got, want)
				}
				if len(h.buckets) != size {
					t.Errorf("descending %v: %d buckets, want %d", descending, len(h.buckets), size)
				}
			}
		})
	}
	var empty histogram
	if got := empty.percentile(0.5); got != 0 {
		t.Errorf("empty histogram: P50 = %d, want 0", got)
	}
}
