package transport

import (
	"testing"
	"time"
)

// benchFlood measures broadcast-flood throughput over a loopback mesh:
// every host broadcasts one FloodMsg per round through the real codec,
// batching and backpressure path. Reported metrics are messages and wire
// bytes delivered per second, cluster-wide.
func benchFlood(b *testing.B, n, padBytes int, cfg LocalClusterConfig) {
	fc, err := NewFloodCluster(n, cfg)
	if err != nil {
		b.Fatal(err)
	}
	defer fc.Close()
	// Warm the mesh so connection ramp-up stays outside the timer.
	if _, err := fc.Flood(1, padBytes, 30*time.Second); err != nil {
		b.Fatal(err)
	}
	before := fc.Stats()
	b.ResetTimer()
	start := time.Now()
	total, err := fc.Flood(b.N, padBytes, 10*time.Minute)
	elapsed := time.Since(start)
	b.StopTimer()
	if err != nil {
		b.Fatal(err)
	}
	after := fc.Stats()
	secs := elapsed.Seconds()
	if secs > 0 {
		b.ReportMetric(float64(total)/secs, "msgs/s")
		b.ReportMetric(float64(after.BytesSent-before.BytesSent)/secs, "bytes/s")
	}
	if batches := after.FramesSent - before.FramesSent; batches > 0 {
		b.ReportMetric(float64(after.MessagesSent-before.MessagesSent)/float64(batches), "msgs/frame")
	}
}

// BenchmarkLoopbackCluster50 floods a 50-node full mesh (1225 TCP
// connections) with 256-byte payloads — the transport's headline number
// in the benchmark trajectory.
func BenchmarkLoopbackCluster50(b *testing.B) {
	benchFlood(b, 50, 256, LocalClusterConfig{})
}

// BenchmarkLoopbackCluster8 is a small-mesh reference point.
func BenchmarkLoopbackCluster8(b *testing.B) {
	benchFlood(b, 8, 256, LocalClusterConfig{})
}
