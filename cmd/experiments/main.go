// Command experiments regenerates every figure and quantitative claim of
// the paper "DAG-based Consensus with Asymmetric Trust", and drives the
// individual protocols through three subcommands.
//
// Usage:
//
//	experiments -list                  list all experiment IDs
//	experiments -run fig4              run one experiment ('all' runs everything)
//	experiments rider -system counterexample -waves 4 -seeds 5
//	experiments gather -proto three -system threshold -n 7 -f 2 -v
//	experiments quorum -system counterexample -faulty 3,17,29 -kernels
//	experiments quorum -system random -n 10 -search 500
//
// The multi-seed experiments, rider and quorum -search fan their runs out
// over GOMAXPROCS goroutines through sim.Sweep; their output is the same
// for every GOMAXPROCS. -run exits 1 when an experiment records a failed
// run (a FIRST FAILING line).
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"

	"repro/internal/harness"
	"repro/internal/quorum"
	"repro/internal/types"
)

// subcommands maps each name to its entry point, which parses args,
// reports to stdout and returns the exit code: 1 when a run fails, 2 on
// bad input.
var subcommands = map[string]func(args []string, stdout io.Writer) int{
	"rider":  runRider,
	"gather": runGather,
	"quorum": runQuorum,
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout))
}

func run(args []string, stdout io.Writer) int {
	if len(args) > 0 && subcommands[args[0]] != nil {
		return subcommands[args[0]](args[1:], stdout)
	}
	fs := flag.NewFlagSet("experiments", flag.ContinueOnError)
	list := fs.Bool("list", false, "list experiment IDs and exit")
	runID := fs.String("run", "all", "experiment ID to run, or 'all'")
	if code, ok := parse(fs, args); !ok {
		return code
	}

	exps := harness.All()
	if *list {
		for _, e := range exps {
			fmt.Fprintf(stdout, "%-10s %s\n", e.ID, e.Title)
		}
		return 0
	}
	if *runID != "all" {
		e, ok := harness.Find(*runID)
		if !ok {
			return usageError("unknown experiment %q; try -list", *runID)
		}
		exps = []harness.Experiment{e}
	}
	code := 0
	for _, e := range exps {
		fmt.Fprintf(stdout, "=== %s — %s ===\n", e.ID, e.Title)
		out := e.Run()
		fmt.Fprintln(stdout, out)
		if harness.Failed(out) {
			code = 1
		}
	}
	return code
}

// parse parses a subcommand's flags; when !ok the caller exits with code:
// 0 for -h, 2 for a bad flag or a stray argument (so a misspelled
// subcommand does not fall through to running every experiment).
func parse(fs *flag.FlagSet, args []string) (code int, ok bool) {
	switch err := fs.Parse(args); {
	case errors.Is(err, flag.ErrHelp):
		return 0, false
	case err != nil:
		return 2, false
	case fs.NArg() > 0:
		return usageError("%s: unexpected argument %q", fs.Name(), fs.Arg(0)), false
	}
	return 0, true
}

// usageError reports bad input on one stderr line and returns exit code 2.
func usageError(format string, a ...any) int {
	fmt.Fprintf(os.Stderr, format+"\n", a...)
	return 2
}

const systemUsage = "counterexample | threshold | federated | unl | random"

// buildSystem builds the explicit quorum system a -system flag names; top
// and tol shape the federated and UNL generators, seed drives all three
// generators.
func buildSystem(kind string, n, f, top, tol int, seed int64) (*quorum.System, error) {
	switch kind {
	case "counterexample":
		return quorum.Counterexample(), nil
	case "threshold":
		return quorum.NewThresholdExplicit(n, f)
	case "federated":
		return quorum.NewFederated(quorum.FederatedConfig{
			N: n, TopTier: top, TrustedPeers: 2, Tolerance: tol, Seed: seed,
		})
	case "unl":
		return quorum.NewUNL(quorum.UNLConfig{
			N: n, ListSize: top, Deviation: 1, Tolerance: tol, Seed: seed,
		})
	case "random":
		return quorum.RandomAsymmetric(quorum.RandomAsymmetricConfig{
			N: n, NumSets: 2, MaxFault: max(1, n/5), Seed: seed,
		})
	default:
		return nil, fmt.Errorf("unknown system %q", kind)
	}
}

// firstOrEmpty returns the first set of a per-process collection, or the
// empty set over universe n when the collection is empty — a process with
// zero quorums (or fail-prone sets) must render as a blank matrix row,
// not crash the tool.
func firstOrEmpty(sets []types.Set, n int) types.Set {
	if len(sets) > 0 {
		return sets[0]
	}
	return types.NewSet(n)
}
