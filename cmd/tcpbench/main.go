// Command tcpbench measures TCP transport throughput on a loopback mesh:
// n hosts, full mesh, every host broadcasting FloodMsg payloads through
// the shared binary codec, batched framing and bounded-outbox
// backpressure path (internal/transport). It reports delivered messages
// per second, wire bytes per second, and the achieved batching factor.
//
// Usage:
//
//	tcpbench -n 50 -rounds 200 -size 256
//	tcpbench -n 8 -outbox 64
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"time"

	"repro/internal/transport"
)

func main() {
	n := flag.Int("n", 50, "mesh size (processes)")
	rounds := flag.Int("rounds", 100, "broadcast rounds (each: every host broadcasts once)")
	size := flag.Int("size", 256, "payload padding bytes per message")
	outbox := flag.Int("outbox", 0, "per-peer outbox bound (0 = default, <0 = unbounded)")
	seed := flag.Int64("seed", 1, "cluster seed")
	timeout := flag.Duration("timeout", 2*time.Minute, "flood deadline")
	flag.Parse()
	if *n < 2 || *rounds < 1 {
		fmt.Fprintln(os.Stderr, "tcpbench: need -n >= 2 and -rounds >= 1")
		os.Exit(2)
	}

	fc, err := transport.NewFloodCluster(*n, transport.LocalClusterConfig{
		Seed:        *seed,
		OutboxLimit: *outbox,
	})
	if err != nil {
		log.Fatal(err)
	}
	defer fc.Close()
	fmt.Printf("mesh: n=%d (%d TCP connections), payload=%dB, outbox=%d\n",
		*n, *n*(*n-1)/2, *size, *outbox)

	// One warm-up round keeps connection ramp-up out of the measurement.
	if _, err := fc.Flood(1, *size, *timeout); err != nil {
		log.Fatal(err)
	}

	before := fc.Stats()
	start := time.Now()
	total, err := fc.Flood(*rounds, *size, *timeout)
	elapsed := time.Since(start)
	if err != nil {
		log.Fatal(err)
	}
	after := fc.Stats()

	secs := elapsed.Seconds()
	frames := after.FramesSent - before.FramesSent
	msgsSent := after.MessagesSent - before.MessagesSent
	bytesSent := after.BytesSent - before.BytesSent
	fmt.Printf("flood: %d rounds in %v\n", *rounds, elapsed.Round(time.Millisecond))
	fmt.Printf("delivered: %d msgs (%.0f msgs/s)\n", total, float64(total)/secs)
	fmt.Printf("wire:      %d bytes sent (%.0f bytes/s), %d frames, %.1f msgs/frame\n",
		bytesSent, float64(bytesSent)/secs, frames, float64(msgsSent)/float64(max(frames, 1)))
	if after.WriteErrors != before.WriteErrors || after.EncodeErrors != before.EncodeErrors {
		fmt.Printf("errors:    write=%d encode=%d requeued=%d\n",
			after.WriteErrors, after.EncodeErrors, after.Requeued)
	}
}
