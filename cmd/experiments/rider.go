package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"slices"

	"repro/internal/harness"
	"repro/internal/quorum"
	"repro/internal/sim"
)

// runRider is the rider subcommand: it sweeps a consensus protocol over
// seeds and prints one CSV row per run — commits, delivered blocks,
// virtual-time latency, message and byte costs — in seed order, then a
// summary of the per-run means on stderr, both independent of -workers.
func runRider(args []string, stdout io.Writer) int {
	fs := flag.NewFlagSet("rider", flag.ContinueOnError)
	kindFlag := fs.String("kind", "asymmetric", "symmetric | asymmetric")
	system := fs.String("system", "threshold", systemUsage)
	n := fs.Int("n", 7, "processes (all but counterexample)")
	f := fs.Int("f", 2, "failure threshold (threshold)")
	waves := fs.Int("waves", 10, "waves per run")
	seeds := fs.Int("seeds", 3, "seeds per configuration")
	tx := fs.Int("tx", 4, "transactions per block")
	workers := workersFlag(fs)
	deliveryWorkers := fs.Int("delivery-workers", 0, "parallel same-time delivery workers inside each run (0 = serial)")
	if code, ok := parse(fs, args); !ok {
		return code
	}

	kind, ok := map[string]harness.RiderKind{"asymmetric": harness.Asymmetric, "symmetric": harness.Symmetric}[*kindFlag]
	if !ok {
		return usageError("unknown kind %q", *kindFlag)
	}
	// Threshold trust stays implicit: the symmetric baseline needs a
	// quorum.Threshold, and it scales to any n. The generated systems are
	// shaped from n alone: a two-thirds top tier tolerating one fault.
	var trust quorum.Assumption
	switch {
	case *system == "threshold":
		if *f < 0 || *n <= 3**f {
			return usageError("threshold system needs n > 3f >= 0, got n=%d f=%d", *n, *f)
		}
		trust = quorum.NewThreshold(*n, *f)
	case kind == harness.Symmetric:
		return usageError("the symmetric rider needs -system threshold, got %q", *system)
	default:
		sys, err := buildSystem(*system, *n, *f, max(3, *n*2/3), 1, 1)
		if err != nil {
			return usageError("%v", err)
		}
		trust = sys
	}

	type record struct {
		commits, med, msgs, bytes int
		vtime                     int64
		hitLimit                  bool
	}
	res := sim.Sweep(sim.SeedRange(0, *seeds), *workers, func(seed int64) record {
		r := harness.RunRider(harness.RiderConfig{
			Kind: kind, Trust: trust, NumWaves: *waves, TxPerBlock: *tx,
			Seed: seed, CoinSeed: seed * 101,
			DeliveryWorkers: *deliveryWorkers,
		})
		commits, med := summarizeRider(r)
		return record{commits, med, r.Metrics.MessagesSent, r.Metrics.BytesSent, int64(r.EndTime), r.HitLimit}
	})
	if err := res.Err(); err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}

	fmt.Fprintln(stdout, "kind,system,n,seed,waves,max_commits,median_tx,vtime,messages,bytes,hit_limit")
	hitLimits, firstHitSeed := 0, int64(-1)
	sum := sim.Reduce(res, record{}, func(acc record, seed int64, r record) record {
		fmt.Fprintf(stdout, "%v,%s,%d,%d,%d,%d,%d,%d,%d,%d,%t\n", kind, *system, trust.N(), seed,
			*waves, r.commits, r.med, r.vtime, r.msgs, r.bytes, r.hitLimit)
		if r.hitLimit {
			hitLimits++
			if firstHitSeed < 0 {
				firstHitSeed = seed
			}
		}
		return record{commits: acc.commits + r.commits, med: acc.med + r.med, msgs: acc.msgs + r.msgs, vtime: acc.vtime + r.vtime}
	})
	if runs := float64(len(res.Values)); runs > 0 {
		fmt.Fprintf(os.Stderr, "summary: %d runs, mean commits %.1f, mean median-tx %.1f, mean vtime %.0f, mean msgs %.0f\n",
			len(res.Values), float64(sum.commits)/runs, float64(sum.med)/runs, float64(sum.vtime)/runs, float64(sum.msgs)/runs)
	}
	if hitLimits > 0 {
		fmt.Fprintf(os.Stderr, "WARNING: %d/%d runs truncated at their event budget (first seed %d); results understate the full execution\n",
			hitLimits, len(res.Values), firstHitSeed)
	}
	return 0
}

// summarizeRider returns the most commits any node made and the median
// count of blocks the nodes delivered.
func summarizeRider(res harness.RiderResult) (maxCommits, medianTx int) {
	if len(res.Nodes) == 0 {
		return 0, 0
	}
	var txs []int
	for _, nr := range res.Nodes {
		txs = append(txs, len(nr.Blocks))
		maxCommits = max(maxCommits, len(nr.Commits))
	}
	slices.Sort(txs)
	return maxCommits, txs[len(txs)/2]
}
