// Command experiments regenerates every figure and quantitative claim of
// the paper "DAG-based Consensus with Asymmetric Trust" (-list prints the
// experiment index).
//
// Usage:
//
//	experiments -list             list all experiment IDs
//	experiments -run fig4         run one experiment
//	experiments -run all          run everything in paper order
//	experiments -run faults -workers 2
//
// The multi-seed experiments (smallsys, waves, compare, faults) fan their
// runs out over all cores through the sim.Sweep engine; -workers caps the
// pool. Results are identical for every worker count.
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/harness"
)

func main() {
	list := flag.Bool("list", false, "list experiment IDs and exit")
	run := flag.String("run", "all", "experiment ID to run, or 'all'")
	workers := flag.Int("workers", 0, "cap sweep parallelism (0 = all cores)")
	deliveryWorkers := flag.Int("delivery-workers", 0, "parallel same-time delivery workers inside each run (0 = serial)")
	flag.Parse()

	harness.DefaultSweepWorkers = *workers
	harness.DefaultDeliveryWorkers = *deliveryWorkers

	if *list {
		for _, e := range harness.AllWithExtensions() {
			fmt.Printf("%-10s %s\n", e.ID, e.Title)
		}
		return
	}

	if *run == "all" {
		for _, e := range harness.AllWithExtensions() {
			banner(e)
			fmt.Println(e.Run())
		}
		return
	}
	e, ok := harness.Find(*run)
	if !ok {
		fmt.Fprintf(os.Stderr, "unknown experiment %q; try -list\n", *run)
		os.Exit(2)
	}
	banner(e)
	fmt.Println(e.Run())
}

func banner(e harness.Experiment) {
	fmt.Printf("=== %s — %s ===\n", e.ID, e.Title)
}
