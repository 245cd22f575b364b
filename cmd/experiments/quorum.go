package main

import (
	"errors"
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
	if code, ok := parse(fs, args); !ok {
		return code
	}
	if *search < 0 {
		return usageError("quorum: need -search >= 0")
	}

	if *search > 0 {
		return searchSystems(stdout, *system, *n, *f, *top, *tol, *seed, *search)
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
	// A vote goes only to its sender's audience (quorum.Assumption.Audience).
	fmt.Fprintf(stdout, "vote fan-out: %d of %d links\n", quorum.VotePairs(sys), sys.N()*(sys.N()-1))

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
// tally runs in seed order.
func searchSystems(stdout io.Writer, kind string, n, f, top, tol int, start int64, count int) int {
	type probe struct {
		err error // the generator's, nil when the system was built
		a   quorum.Analysis
	}
	seeds := sim.SeedRange(start, count)
	probes, errs := sim.Sweep(seeds, func(seed int64) probe {
		sys, err := buildSystem(kind, n, f, top, tol, seed)
		if err != nil {
			return probe{err: err}
		}
		return probe{a: quorum.AnalyzeSystem(sys)}
	})
	if err := errors.Join(errs...); err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	built, valid, b3, minQ, maxQ := 0, 0, 0, 1<<30, 0
	firstFailedSeed, firstBadSeed := int64(-1), int64(-1)
	var firstErr error
	var firstBadWitness string
	for i, p := range probes {
		seed := seeds[i]
		if p.err != nil {
			if firstFailedSeed < 0 {
				firstFailedSeed, firstErr = seed, p.err
			}
			continue
		}
		built++
		if p.a.Valid {
			valid++
		}
		if p.a.B3 {
			b3++
		}
		if (!p.a.Valid || !p.a.B3) && firstBadSeed < 0 {
			firstBadSeed = seed
			if !p.a.Valid {
				firstBadWitness = p.a.Err.Error()
			} else {
				firstBadWitness = p.a.B3Witness
			}
		}
		if p.a.TotalQuorums > 0 {
			minQ = min(minQ, p.a.SmallestQuorum)
			maxQ = max(maxQ, p.a.SmallestQuorum)
		}
	}
	fmt.Fprintf(stdout, "search: %s, n=%d, seeds %d..%d\n", kind, n, start, start+int64(count)-1)
	fmt.Fprintf(stdout, "built: %d/%d, valid: %d, B3 satisfied: %d\n", built, count, valid, b3)
	if built > 0 && maxQ > 0 {
		fmt.Fprintf(stdout, "smallest quorum c(Q): min %d, max %d\n", minQ, maxQ)
	}
	if firstBadSeed >= 0 {
		fmt.Fprintf(stdout, "first violation: seed %d (%s)\n", firstBadSeed, firstBadWitness)
	}
	if firstFailedSeed >= 0 {
		fmt.Fprintf(stdout, "first failing seed: %d (%v)\n", firstFailedSeed, firstErr)
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
