package service

import "math"

// histogram is a bounded-memory latency recorder: width-1 buckets up to
// latCap virtual-time units, one overflow bucket beyond. A long-lived run
// records millions of latencies in a fixed footprint, and percentiles come
// from a counting walk — no sample retention. The buckets grow on demand,
// doubling from latMin up to latCap, so a replica whose latencies stay low
// holds latMin of them, not latCap.
type histogram struct {
	buckets  []int64
	overflow int64
	count    int64
	sum      int64
	max      int64
}

const (
	latMin = 1 << 10
	latCap = 1 << 12
)

func (h *histogram) observe(v int64) {
	if v < 0 {
		v = 0
	}
	if v >= latCap {
		h.overflow++
	} else {
		if v >= int64(len(h.buckets)) {
			size := max(len(h.buckets), latMin)
			for int64(size) <= v {
				size *= 2
			}
			grown := make([]int64, min(size, latCap))
			copy(grown, h.buckets)
			h.buckets = grown
		}
		h.buckets[v]++
	}
	h.count++
	h.sum += v
	if v > h.max {
		h.max = v
	}
}

// percentile returns the smallest latency ≥ the p-quantile (0 < p ≤ 1):
// the observation of nearest rank ⌈p·count⌉. Overflowed observations
// report max.
func (h *histogram) percentile(p float64) int64 {
	if h.count == 0 {
		return 0
	}
	rank := int64(math.Ceil(p * float64(h.count)))
	var seen int64
	for v, c := range h.buckets {
		seen += c
		if seen >= rank {
			return int64(v)
		}
	}
	return h.max
}

// LatencySummary reports own-command commit latency in virtual-time units.
type LatencySummary struct {
	Count    int64
	Mean     float64
	P50, P99 int64
	Max      int64
}

func (h *histogram) summary() LatencySummary {
	s := LatencySummary{Count: h.count, Max: h.max}
	if h.count > 0 {
		s.Mean = float64(h.sum) / float64(h.count)
		s.P50 = h.percentile(0.50)
		s.P99 = h.percentile(0.99)
	}
	return s
}
