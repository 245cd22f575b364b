package main

import (
	"bytes"
	"math"
	"strings"
	"testing"
)

// runsOf builds k runs per side with one metric, name, read from base and
// change in turn.
func runsOf(name string, base, change []float64) [2][]result {
	var runs [2][]result
	for side, vals := range [2][]float64{base, change} {
		for _, v := range vals {
			runs[side] = append(runs[side], result{Correct: true, Attempted: 100, Metrics: map[string]reading{name: {v}}})
		}
	}
	return runs
}

// TestReport: an exact metric regresses when the change is worse by more
// than its bound, a paired one when the median ratio is, in the metric's
// own direction, and the sign test rejects at p <= 0.05 over at least six
// pairs; a gain or a move inside the bound does not. The A/A rows are
// spreads recorded between runs of one binary, which must not flag.
func TestReport(t *testing.T) {
	lower := metric{Name: "wire_bytes_per_tx", Better: "lower", Bound: 0.05}
	higher := metric{Name: "throughput_tx_s", Better: "higher", Bound: 0.25}
	setup := metric{Name: "setup_s", Better: "lower", Bound: 0.25}
	rss := metric{Name: "peak_rss_mb", Better: "lower", Bound: 0.25}
	for _, tc := range []struct {
		name         string
		m            metric
		base, change []float64
		regress      bool
		want         string // substring of the table line
	}{
		{"exact gain", lower, []float64{1000, 1000, 1000}, []float64{800, 800, 800}, false, "exact"},
		{"exact inside bound", lower, []float64{1000, 1000, 1000}, []float64{1040, 1040, 1040}, false, "40"},
		{"exact past bound", lower, []float64{1000, 1000, 1000}, []float64{1060, 1060, 1060}, true, "+6.00% REGRESSION"},
		{"paired gain", higher, []float64{100, 110, 90}, []float64{130, 140, 120}, false, "3+/0− p=0.25  +30.00% unresolved"},
		{"paired past bound, three pairs", higher, []float64{100, 110, 90}, []float64{70, 77, 60}, false, "0+/3− p=0.25  -30.00% unresolved"},
		{"paired past bound, six pairs", higher, []float64{100, 110, 90, 100, 105, 95}, []float64{70, 77, 60, 70, 70, 66}, true, "0+/6− p=0.03  -30.26% REGRESSION"},
		{"paired inside bound, six pairs", higher, []float64{100, 110, 90, 100, 105, 95}, []float64{95, 100, 88, 97, 101, 93}, false, "0+/6− p=0.03  -3.40%\n"},
		// tcp_paced_n4 setup_s read 0.60–1.03 ms on one binary and
		// 0.78–1.24 ms on another with no change on its path.
		{"A/A setup_s, three pairs", setup, []float64{0.60, 0.70, 0.81}, []float64{0.94, 1.03, 1.24}, false, "0+/3− p=0.25  +53.09% unresolved"},
		{"A/A setup_s, six pairs", setup, []float64{0.60, 0.70, 0.81, 1.03, 0.78, 0.90}, []float64{0.94, 1.03, 1.24, 0.62, 1.10, 0.70}, false, "2+/4− p=0.69  +44.08% unresolved"},
		// sim_faults_n7 peak_rss_mb is bimodal, 77.9 or 86.9 MiB.
		{"A/A peak_rss_mb, six pairs", rss, []float64{77.9, 77.9, 86.9, 77.9, 86.9, 77.9}, []float64{86.9, 86.9, 86.9, 86.9, 77.9, 86.9}, false, "1+/4− p=0.38  +11.55%\n"},
		{"×1.5, five pairs", setup, []float64{1, 1.1, 0.9, 1, 1.2}, []float64{1.5, 1.65, 1.35, 1.5, 1.8}, false, "0+/5− p=0.06  +50.00% unresolved"},
		{"×1.5, six pairs", setup, []float64{1, 1.1, 0.9, 1, 1.2, 1}, []float64{1.5, 1.65, 1.35, 1.5, 1.8, 1.5}, true, "0+/6− p=0.03  +50.00% REGRESSION"},
		{"zero base", lower, []float64{0, 0, 0}, []float64{5, 5, 5}, false, "exact"},
	} {
		var out bytes.Buffer
		got := report(&out, "w", []metric{tc.m}, runsOf(tc.m.Name, tc.base, tc.change))
		if (got > 0) != tc.regress || !strings.Contains(out.String(), tc.want) {
			t.Errorf("%s: %d regressions (want regression %v), table lacks %q:\n%s", tc.name, got, tc.regress, tc.want, out.String())
		}
	}
}

// TestReportFailures: a few failed operations in one run of either side
// are not a regression; a change that fails more in most pairs is.
func TestReportFailures(t *testing.T) {
	for _, tc := range []struct {
		name         string
		base, change []int // failed operations per run, of 100 attempted
		regress      bool
	}{
		{"base hiccup", []int{0, 4, 0}, []int{0, 0, 0}, false},
		{"change hiccup", []int{0, 0, 0}, []int{0, 4, 0}, false},
		{"change hiccup, two pairs", []int{0, 0}, []int{4, 0}, false},
		{"both hiccup", []int{3, 0, 0}, []int{0, 0, 5}, false},
		{"change fails in most pairs", []int{0, 1, 0}, []int{2, 3, 0}, true},
		{"change fails in every pair", []int{0, 0, 0}, []int{1, 1, 1}, true},
	} {
		runs := runsOf("m", make([]float64, len(tc.base)), make([]float64, len(tc.change)))
		for side, failed := range [2][]int{tc.base, tc.change} {
			for i, f := range failed {
				runs[side][i].Failed = f
			}
		}
		var out bytes.Buffer
		if got := report(&out, "w", nil, runs); (got > 0) != tc.regress {
			t.Errorf("%s: %d regressions, want regression %v:\n%s", tc.name, got, tc.regress, out.String())
		}
	}
}

// TestSignTest checks the two-sided sign test against the binomial tails.
func TestSignTest(t *testing.T) {
	for _, tc := range []struct {
		better, worse int
		p             float64
	}{
		{0, 0, 1}, {3, 0, 0.25}, {10, 0, 2.0 / 1024}, {9, 1, 22.0 / 1024}, {5, 5, 1},
	} {
		if got := signTest(tc.better, tc.worse); math.Abs(got-tc.p) > 1e-12 {
			t.Errorf("signTest(%d, %d) = %g, want %g", tc.better, tc.worse, got, tc.p)
		}
	}
}
