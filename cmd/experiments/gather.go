package main

import (
	"flag"
	"fmt"
	"io"

	"repro/internal/gather"
	"repro/internal/sim"
	"repro/internal/types"
)

// runGather is the gather subcommand: it runs a gather protocol (the
// three-round Algorithm 1/2 or the constant-round Algorithm 3) on a
// chosen quorum system and schedule, reporting the delivered sets,
// whether a common core exists, and the cost.
func runGather(args []string, stdout io.Writer) int {
	fs := flag.NewFlagSet("gather", flag.ContinueOnError)
	proto := fs.String("proto", "constant", "three | constant")
	system := fs.String("system", "counterexample", systemUsage)
	n := fs.Int("n", 7, "processes (all but counterexample)")
	f := fs.Int("f", 2, "failure threshold (threshold)")
	schedule := fs.String("schedule", "adversarial", "adversarial | uniform")
	seeds := fs.Int("seeds", 1, "number of seeds to run")
	verbose := fs.Bool("v", false, "print every delivered set")
	if code, ok := parse(fs, args); !ok {
		return code
	}
	if *seeds < 1 {
		return usageError("gather: need -seeds >= 1")
	}

	kind, ok := map[string]gather.Kind{"constant": gather.KindConstantRound, "three": gather.KindThreeRound}[*proto]
	if !ok {
		return usageError("unknown protocol %q", *proto)
	}
	// Federated and UNL systems take the quorum subcommand's default shape.
	sys, err := buildSystem(*system, *n, *f, 7, 2, 1)
	if err != nil {
		return usageError("%v", err)
	}
	var lat sim.LatencyModel
	switch *schedule {
	case "uniform":
		lat = sim.UniformLatency{Min: 1, Max: 50}
	case "adversarial":
		lat = gather.AdversarialSchedule(sys)
	default:
		return usageError("unknown schedule %q", *schedule)
	}

	for seed := int64(0); seed < int64(*seeds); seed++ {
		res := gather.RunCluster(gather.RunConfig{
			Kind: kind, Trust: sys, Mode: gather.UsePlain, Latency: lat, Seed: seed,
		})
		core := gather.AnalyzeCommonCore(sys.N(), res.SSnapshots, res.Outputs, types.FullSet(sys.N()))
		fmt.Fprintf(stdout, "seed %d: %s gather on %s/%s: delivered=%d/%d commonCore=%v msgs=%d vtime=%d\n",
			seed, kind, *system, *schedule, len(res.Outputs), sys.N(), core,
			res.Metrics.MessagesSent, res.EndTime)
		if *verbose {
			for p := 0; p < sys.N(); p++ {
				if out, ok := res.Outputs[types.ProcessID(p)]; ok {
					fmt.Fprintf(stdout, "  %v delivers %v\n", types.ProcessID(p), out.Senders(sys.N()))
				}
			}
		}
	}
	return 0
}
