package main

import (
	"bufio"
	"fmt"
	"os"
	"runtime"
	rtmetrics "runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"

	"repro/internal/transport"
)

// snapshot is what is read at both ends of a measured window.
type snapshot struct {
	cpu   time.Duration // process user+sys
	gcCPU float64       // seconds the collector used
	mem   runtime.MemStats
	net   transport.HostStats
}

func takeSnapshot(lc *transport.LocalCluster) snapshot {
	var s snapshot
	s.cpu = processCPU()
	sample := []rtmetrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}}
	rtmetrics.Read(sample)
	if sample[0].Value.Kind() == rtmetrics.KindFloat64 {
		s.gcCPU = sample[0].Value.Float64()
	}
	runtime.ReadMemStats(&s.mem)
	if lc != nil {
		s.net = lc.Stats()
	}
	return s
}

// processCPU returns the user+system CPU time the process has used.
func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMiB reads the process's high-water resident set (VmHWM).
func peakRSSMiB() float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, _ := strconv.ParseFloat(strings.Fields(rest)[0], 64)
			return kb / 1024
		}
	}
	return 0
}

func diffStats(a, b transport.HostStats) transport.HostStats {
	a.FramesSent -= b.FramesSent
	a.MessagesSent -= b.MessagesSent
	a.BytesSent -= b.BytesSent
	a.WriteErrors -= b.WriteErrors
	a.Requeued -= b.Requeued
	a.EncodeErrors -= b.EncodeErrors
	a.MessagesReceived -= b.MessagesReceived
	a.BytesReceived -= b.BytesReceived
	return a
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

// percentile returns the p-quantile (0..1) of xs by nearest rank; xs is
// sorted in place. 0 for an empty slice.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	i := int(p*float64(len(xs))+0.5) - 1
	return xs[min(max(i, 0), len(xs)-1)]
}

// percentileOfInts is percentile for whole-numbered samples (virtual-time
// latencies): each sample v is taken as spread evenly over [v-0.5, v+0.5),
// the usual histogram interpolation, so that the result moves smoothly
// with the distribution and does not stick to one integer.
func percentileOfInts(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	v := percentile(xs, p)
	below := sort.SearchFloat64s(xs, v)
	upTo := sort.SearchFloat64s(xs, v+1)
	rank := p * float64(len(xs))
	return v - 0.5 + min(max((rank-float64(below))/float64(upTo-below), 0), 1)
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	m := len(xs) / 2
	if len(xs)%2 == 1 {
		return xs[m]
	}
	return (xs[m-1] + xs[m]) / 2
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// ratio is a/b, 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// stamp describes the host and build every output line is tied to.
type stamp struct {
	CPU        string `json:"cpu"`
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Go         string `json:"go"`
}

func hostStamp() stamp {
	s := stamp{NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), Go: runtime.Version(), CPU: "unknown"}
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if rest, ok := strings.CutPrefix(line, "model name"); ok {
				s.CPU = strings.TrimSpace(strings.TrimPrefix(strings.TrimSpace(rest), ":"))
				break
			}
		}
	}
	return s
}

// timeLoop runs fn repeatedly for about budget and returns the mean
// nanoseconds per call; fn is called at least once.
func timeLoop(budget time.Duration, fn func()) float64 {
	calls := 0
	start := time.Now()
	for {
		fn()
		calls++
		if el := time.Since(start); el >= budget {
			return float64(el) / float64(calls)
		}
	}
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "bench: "+format+"\n", args...)
	os.Exit(1)
}
