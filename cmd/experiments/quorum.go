package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"

	"repro/internal/quorum"
	"repro/internal/sim"
	"repro/internal/types"
)

// runQuorum is the quorum subcommand: it inspects an asymmetric quorum
// system — validates the defining properties, checks the B3 condition,
// computes guilds for a hypothetical faulty set, and enumerates minimal
// kernels — or, with -search, tabulates a generator over many seeds.
func runQuorum(args []string, stdout io.Writer) int {
	fs := flag.NewFlagSet("quorum", flag.ContinueOnError)
	system := fs.String("system", "counterexample", systemUsage)
	n := fs.Int("n", 30, "number of processes (all but counterexample)")
	f := fs.Int("f", 1, "failure threshold (threshold)")
	top := fs.Int("top", 7, "top tier size (federated), list size (unl)")
	tol := fs.Int("tol", 2, "top tier fault tolerance (federated/unl)")
	seed := fs.Int64("seed", 1, "generator seed (federated/unl/random)")
	faultyFlag := fs.String("faulty", "", "comma-separated 1-based faulty process list for guild analysis")
	kernels := fs.Bool("kernels", false, "enumerate minimal kernels of p1")
	matrix := fs.Bool("matrix", false, "render the Figure 1 style matrix")
	search := fs.Int("search", 0, "sweep this many generator seeds (starting at -seed) instead of inspecting one system")
	workers := workersFlag(fs)
	if code, ok := parse(fs, args); !ok {
		return code
	}

	if *search > 0 {
		return searchSystems(stdout, *system, *n, *f, *top, *tol, *seed, *search, *workers)
	}

	sys, err := buildSystem(*system, *n, *f, *top, *tol, *seed)
	if err != nil {
		return usageError("%v", err)
	}
	var faulty types.Set
	if *faultyFlag != "" {
		if faulty, err = parseSet(*faultyFlag, sys.N()); err != nil {
			return usageError("%v", err)
		}
	}

	fmt.Fprintf(stdout, "system: %s\n", *system)
	fmt.Fprint(stdout, sys.Describe())

	if *matrix {
		fmt.Fprintln(stdout, quorum.RenderMatrix(sys.N(), "trust matrix (Q = quorum of row process, F = fail-prone)",
			func(p types.ProcessID) types.Set { return firstOrEmpty(sys.Quorums(p), sys.N()) },
			func(p types.ProcessID) types.Set { return firstOrEmpty(sys.FailProneSets(p), sys.N()) }))
	}

	if *faultyFlag != "" {
		guild := sys.MaximalGuild(faulty)
		fmt.Fprintf(stdout, "faulty: %v\nwise: %v\nnaive: %v\nmaximal guild: %v (size %d)\n",
			faulty, sys.Wise(faulty), sys.Naive(faulty), guild, guild.Count())
	}

	if *kernels {
		ks := sys.MinimalKernels(0, 32)
		fmt.Fprintf(stdout, "minimal kernels of p1 (up to 32): %d\n", len(ks))
		for _, k := range ks {
			fmt.Fprintf(stdout, "  %v\n", k)
		}
	}
	return 0
}

// searchSystems sweeps generator seeds in parallel (sim.Sweep) and
// tabulates how the family behaves: how many seeds build, how many yield
// valid systems, how many satisfy B3, and the observed range of the
// smallest quorum size c(Q). Each built system is analyzed with the batch
// quorum.AnalyzeSystem API — one evaluator compilation and one sweep per
// system instead of separate Validate/SatisfiesB3/c(Q) passes. The
// aggregation runs in seed order, so the report is identical for every
// worker count.
func searchSystems(stdout io.Writer, kind string, n, f, top, tol int, start int64, count, workers int) int {
	type probe struct {
		err error // the generator's, nil when the system was built
		a   quorum.Analysis
	}
	res := sim.Sweep(sim.SeedRange(start, count), workers, func(seed int64) probe {
		sys, err := buildSystem(kind, n, f, top, tol, seed)
		if err != nil {
			return probe{err: err}
		}
		return probe{a: quorum.AnalyzeSystem(sys)}
	})
	if err := res.Err(); err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	type tally struct {
		built, valid, b3 int
		minQ, maxQ       int
		firstFailedSeed  int64
		firstErr         error
		firstBadSeed     int64
		firstBadWitness  string
	}
	agg := sim.Reduce(res, tally{minQ: 1 << 30, firstFailedSeed: -1, firstBadSeed: -1}, func(acc tally, seed int64, p probe) tally {
		if p.err != nil {
			if acc.firstFailedSeed < 0 {
				acc.firstFailedSeed, acc.firstErr = seed, p.err
			}
			return acc
		}
		acc.built++
		if p.a.Valid {
			acc.valid++
		}
		if p.a.B3 {
			acc.b3++
		}
		if (!p.a.Valid || !p.a.B3) && acc.firstBadSeed < 0 {
			acc.firstBadSeed = seed
			if !p.a.Valid {
				acc.firstBadWitness = p.a.Err.Error()
			} else {
				acc.firstBadWitness = p.a.B3Witness
			}
		}
		if p.a.TotalQuorums > 0 {
			acc.minQ = min(acc.minQ, p.a.SmallestQuorum)
			acc.maxQ = max(acc.maxQ, p.a.SmallestQuorum)
		}
		return acc
	})
	fmt.Fprintf(stdout, "search: %s, n=%d, seeds %d..%d\n", kind, n, start, start+int64(count)-1)
	fmt.Fprintf(stdout, "built: %d/%d, valid: %d, B3 satisfied: %d\n", agg.built, count, agg.valid, agg.b3)
	if agg.built > 0 && agg.maxQ > 0 {
		fmt.Fprintf(stdout, "smallest quorum c(Q): min %d, max %d\n", agg.minQ, agg.maxQ)
	}
	if agg.firstBadSeed >= 0 {
		fmt.Fprintf(stdout, "first violation: seed %d (%s)\n", agg.firstBadSeed, agg.firstBadWitness)
	}
	if agg.firstFailedSeed >= 0 {
		fmt.Fprintf(stdout, "first failing seed: %d (%v)\n", agg.firstFailedSeed, agg.firstErr)
	}
	return 0
}

// parseSet parses a comma-separated list of 1-based process numbers into
// a set over n processes.
func parseSet(csv string, n int) (types.Set, error) {
	s := types.NewSet(n)
	for _, part := range strings.Split(csv, ",") {
		v, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil {
			return s, fmt.Errorf("bad process number %q: %w", part, err)
		}
		if v < 1 || v > n {
			return s, fmt.Errorf("process %d out of range 1..%d", v, n)
		}
		s.Add(types.ProcessID(v - 1))
	}
	return s, nil
}
