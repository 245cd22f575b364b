package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	"repro/internal/transport"
)

// runFlood is the flood subcommand: it measures TCP transport throughput
// on a loopback mesh — n hosts, full mesh, every host broadcasting
// FloodMsg payloads through the shared binary codec, batched framing and
// bounded-outbox backpressure path (internal/transport). It reports
// delivered messages per second, wire bytes per second, and the achieved
// batching factor.
func runFlood(args []string, stdout io.Writer) int {
	fs := flag.NewFlagSet("flood", flag.ContinueOnError)
	n := fs.Int("n", 50, "mesh size (processes)")
	rounds := fs.Int("rounds", 100, "broadcast rounds (each: every host broadcasts once)")
	size := fs.Int("size", 256, "payload padding bytes per message")
	seed := fs.Int64("seed", 1, "cluster seed")
	timeout := fs.Duration("timeout", 2*time.Minute, "flood deadline")
	if code, ok := parse(fs, args); !ok {
		return code
	}
	if *n < 2 || *rounds < 1 {
		return usageError("flood: need -n >= 2 and -rounds >= 1")
	}

	fc, err := transport.NewFloodCluster(*n, transport.LocalClusterConfig{Seed: *seed})
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	defer fc.Close()
	fmt.Fprintf(stdout, "mesh: n=%d (%d TCP connections), payload=%dB\n", *n, *n*(*n-1)/2, *size)

	// One warm-up round keeps connection ramp-up out of the measurement.
	if _, err := fc.Flood(1, *size, *timeout); err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}

	before := fc.Stats()
	start := time.Now()
	total, err := fc.Flood(*rounds, *size, *timeout)
	elapsed := time.Since(start)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	after := fc.Stats()

	secs := elapsed.Seconds()
	frames := after.FramesSent - before.FramesSent
	msgsSent := after.MessagesSent - before.MessagesSent
	bytesSent := after.BytesSent - before.BytesSent
	fmt.Fprintf(stdout, "flood: %d rounds in %v\n", *rounds, elapsed.Round(time.Millisecond))
	fmt.Fprintf(stdout, "delivered: %d msgs (%.0f msgs/s)\n", total, float64(total)/secs)
	fmt.Fprintf(stdout, "wire:      %d bytes sent (%.0f bytes/s), %d frames, %.1f msgs/frame\n",
		bytesSent, float64(bytesSent)/secs, frames, float64(msgsSent)/float64(max(frames, 1)))
	if after.WriteErrors != before.WriteErrors || after.EncodeErrors != before.EncodeErrors {
		fmt.Fprintf(stdout, "errors:    write=%d encode=%d requeued=%d\n",
			after.WriteErrors, after.EncodeErrors, after.Requeued)
	}
	return 0
}
