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
// own direction; a gain or a move inside the bound does not.
func TestReport(t *testing.T) {
	lower := metric{Name: "wire_bytes_per_tx", Better: "lower", Bound: 0.05}
	higher := metric{Name: "throughput_tx_s", Better: "higher", Bound: 0.25}
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
		{"paired gain", higher, []float64{100, 110, 90}, []float64{130, 140, 120}, false, "3+/0−"},
		{"paired past bound", higher, []float64{100, 110, 90}, []float64{70, 77, 60}, true, "0+/3−"},
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
