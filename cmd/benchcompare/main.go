// Command benchcompare runs the repository benchmark (BENCHMARK.json) on
// two revisions in alternating pairs and reports each end-to-end metric
// per workload, exiting 1 on a paired regression past the metric's bound.
//
//	go run ./cmd/benchcompare -base <rev> [-change <rev>] [-k 5]
//
// `make compare BASE=<rev> K=<k>` runs it from the repository root. Each
// side is checked out with `git worktree add` under .bench_build/compare/
// and its benchmark (bench/) is built once; the worktrees and binaries
// are removed at the end. -change defaults to the working tree: its tracked
// and staged files, committed to a dangling commit by `git stash create`
// (HEAD when the tree is clean), so `git add` new files first. Per
// workload, the k pairs of runs alternate which side goes first, every run
// at seed 1 and BENCHMARK.json's run_seconds, as the benchmark is judged.
//
// A metric that reads the same in every run of each side, k >= 2 (the
// simulator's counts), is exact: both values are printed with their difference, and it
// regresses when the change is worse by more than the bound. Any other (a
// wall-clock or allocation reading) prints the median of the k paired
// ratios change/base and a two-sided sign test over the pairs; it
// regresses when the median ratio is worse than the bound, the sign test
// rejects at p <= 0.05, and the base runs' interquartile range is at most
// the bound times their median. The sign test takes k >= 6 (six of six
// pairs worse give p = 0.03), so below six pairs every such row prints
// "unresolved", and so does one past the bound that fails either other
// test: a run-to-run spread wider than the bound can tell no change from
// none. A run that fails its own correctness checks is a
// regression too, and so is a change that fails a larger share of
// operations than the base in more than half of the pairs: one run's
// hiccup on either side does not decide it.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
)

// A paired metric regresses only when the sign test over its pairs
// rejects at level alpha, which no fewer than minPairs pairs can do.
const (
	alpha    = 0.05
	minPairs = 6
)

// spec is the part of BENCHMARK.json the comparison reads.
type spec struct {
	RunSeconds float64 `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []metric `json:"end_to_end"`
}

type metric struct {
	Name   string  `json:"name"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// result is the last line of a benchmark run.
type result struct {
	Correct   bool               `json:"correct"`
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	Metrics   map[string]reading `json:"metrics"`
}

type reading struct {
	Value float64 `json:"value"`
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchcompare", flag.ContinueOnError)
	fs.SetOutput(stderr)
	base := fs.String("base", "", "base revision (required)")
	change := fs.String("change", "", "changed revision (default: the working tree)")
	k := fs.Int("k", minPairs, "pairs of runs per workload")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *base == "" || *k < 1 || fs.NArg() > 0 {
		fmt.Fprintln(stderr, "benchcompare: need -base <rev>, -k >= 1 and no arguments")
		return 2
	}
	root, err := git("rev-parse", "--show-toplevel")
	if err != nil {
		fmt.Fprintln(stderr, "benchcompare:", err)
		return 2
	}
	raw, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	var sp spec
	if err == nil {
		err = json.Unmarshal(raw, &sp)
	}
	if err != nil {
		fmt.Fprintln(stderr, "benchcompare: BENCHMARK.json:", err)
		return 2
	}
	if sp.RunSeconds <= 0 {
		fmt.Fprintln(stderr, "benchcompare: BENCHMARK.json: no run_seconds")
		return 2
	}

	dir := filepath.Join(root, ".bench_build", "compare")
	revs := [2]string{*base, *change}
	if revs[1] == "" {
		if revs[1], err = git("stash", "create"); err == nil && revs[1] == "" {
			revs[1] = "HEAD"
		}
	}
	// Cleanup errors only leave ignored files behind; the next run
	// replaces them.
	defer os.RemoveAll(dir)
	var sides [2]side
	for i, name := range []string{"base", "change"} {
		if err == nil {
			sides[i], err = build(stdout, dir, name, revs[i])
		}
		defer git("worktree", "remove", "--force", filepath.Join(dir, name))
	}
	if err != nil {
		fmt.Fprintln(stderr, "benchcompare:", err)
		return 2
	}
	fmt.Fprintf(stdout, "%d pairs per workload, -seed 1 -seconds %g\n", *k, sp.RunSeconds)

	regressions := 0
	for _, wl := range sp.Workloads {
		w := wl.Name
		var runs [2][]result
		for i := 0; i < *k; i++ {
			for j := range 2 {
				at := (i + j) % 2 // even pairs run base first, odd ones the change
				res, err := sides[at].run(w, sp.RunSeconds)
				if err != nil {
					fmt.Fprintf(stderr, "benchcompare: %s on %s, pair %d: %v\n", sides[at].name, w, i+1, err)
					return 1
				}
				runs[at] = append(runs[at], res)
			}
		}
		regressions += report(stdout, w, sp.EndToEnd, runs)
	}
	if regressions > 0 {
		fmt.Fprintf(stdout, "\n%d paired regressions past their BENCHMARK.json bounds\n", regressions)
		return 1
	}
	fmt.Fprintln(stdout, "\nno paired regression past a BENCHMARK.json bound")
	return 0
}

// side is the benchmark binary of one side: where it is, and the bench/
// directory of the worktree it was built from, which it runs in.
type side struct{ name, bin, dir string }

// build checks rev out as the detached worktree dir/name, replacing any
// earlier one, and builds its benchmark.
func build(stdout io.Writer, dir, name, rev string) (side, error) {
	tree := filepath.Join(dir, name)
	// An earlier run's worktree, if one is left; these fail when none is.
	git("worktree", "remove", "--force", tree)
	os.RemoveAll(tree)
	git("worktree", "prune")
	if _, err := git("worktree", "add", "--detach", tree, rev); err != nil {
		return side{}, err
	}
	sha, err := git("-C", tree, "rev-parse", "--short", "HEAD")
	if err != nil {
		return side{}, err
	}
	fmt.Fprintf(stdout, "%s: %s (%s)\n", name, rev, sha)
	d := side{name: name, bin: filepath.Join(dir, "bench-"+name), dir: filepath.Join(tree, "bench")}
	cmd := exec.Command("go", "build", "-o", d.bin, ".")
	cmd.Dir, cmd.Stdout, cmd.Stderr = d.dir, os.Stderr, os.Stderr
	if err := cmd.Run(); err != nil {
		return side{}, fmt.Errorf("building %s's benchmark: %v", name, err)
	}
	return d, nil
}

// run runs one benchmark and parses its last line.
func (d side) run(workload string, seconds float64) (result, error) {
	var out, errOut bytes.Buffer
	cmd := exec.Command(d.bin, "-workload", workload, "-seed", "1",
		"-seconds", strconv.FormatFloat(seconds, 'g', -1, 64), "-trace", "0")
	cmd.Dir, cmd.Stdout, cmd.Stderr = d.dir, &out, &errOut
	if err := cmd.Run(); err != nil {
		return result{}, fmt.Errorf("%v: %s", err, lastLine(errOut.String()))
	}
	var res result
	if err := json.Unmarshal([]byte(lastLine(out.String())), &res); err != nil {
		return result{}, fmt.Errorf("parsing its last line: %w", err)
	}
	if !res.Correct {
		return result{}, fmt.Errorf("the run failed its correctness checks")
	}
	return res, nil
}

// report prints one workload's table and returns its number of
// regressions.
func report(w io.Writer, workload string, metrics []metric, runs [2][]result) int {
	fmt.Fprintf(w, "\n== %s\n%-20s %-6s %14s %14s %24s  %s\n", workload, "metric", "kind", "base", "change", "Δ or ratio, sign test", "change")
	regressions := 0
	for _, m := range metrics {
		var vals [2][]float64
		for k := range runs {
			for _, r := range runs[k] {
				vals[k] = append(vals[k], r.Metrics[m.Name].Value)
			}
		}
		b, c := median(vals[0]), median(vals[1])
		// rel is the change's relative difference from base: exact, or
		// the median paired ratio less 1.
		var kind, delta string
		var rel float64
		resolved := true // whether a move past the bound is a regression
		spread := 0.0    // the base runs' interquartile range over their median
		if len(vals[0]) > 1 && constant(vals[0]) && constant(vals[1]) {
			kind, delta = "exact", strconv.FormatFloat(c-b, 'g', 8, 64)
			rel = c/b - 1
		} else {
			ratios := make([]float64, len(vals[0]))
			better, worse := 0, 0
			for i := range ratios {
				ratios[i] = vals[1][i] / vals[0][i]
				switch d := vals[1][i] - vals[0][i]; {
				case d == 0:
				case (d < 0) == (m.Better == "lower"):
					better++
				default:
					worse++
				}
			}
			rel = median(ratios) - 1
			p := signTest(better, worse)
			kind, delta = "paired", fmt.Sprintf("×%.4f %d+/%d− p=%.2f", rel+1, better, worse, p)
			spread = (quantile(vals[0], 0.75) - quantile(vals[0], 0.25)) / b
			resolved = len(ratios) >= minPairs && p <= alpha && spread <= m.Bound
		}
		if math.IsNaN(rel) || math.IsInf(rel, 0) {
			rel = 0 // a base reading of 0: no ratio to bound
		}
		worse := rel
		if m.Better == "higher" {
			worse = -rel
		}
		verdict := fmt.Sprintf("%+.2f%%", 100*rel)
		switch {
		case worse > m.Bound && resolved:
			verdict += fmt.Sprintf(" REGRESSION (bound %g%%)", 100*m.Bound)
			regressions++
		case worse > m.Bound || kind == "paired" && len(vals[0]) < minPairs:
			verdict += " unresolved"
			if worse > m.Bound && spread > m.Bound {
				verdict += fmt.Sprintf(" (base spread %.0f%%)", 100*spread)
			}
		}
		fmt.Fprintf(w, "%-20s %-6s %14.6g %14.6g %24s  %s\n", m.Name, kind, b, c, delta, verdict)
	}
	// Failures are judged pair by pair: the change fails a larger share of
	// its operations than the base in more than half of the pairs.
	var failed, attempted [2]int
	better, worse := 0, 0
	for i := range runs[0] {
		b, c := runs[0][i], runs[1][i]
		switch d := c.Failed*max(b.Attempted, 1) - b.Failed*max(c.Attempted, 1); {
		case d < 0:
			better++
		case d > 0:
			worse++
		}
		for k, r := range [2]result{b, c} {
			failed[k] += r.Failed
			attempted[k] += r.Attempted
		}
	}
	verdict := "ok"
	if 2*worse > len(runs[0]) {
		verdict = "REGRESSION (a larger share of operations fails in most pairs)"
		regressions++
	}
	fmt.Fprintf(w, "%-20s %-6s %14s %14s %24s  %s\n", "failed/attempted", "sum",
		fmt.Sprintf("%d/%d", failed[0], attempted[0]), fmt.Sprintf("%d/%d", failed[1], attempted[1]),
		fmt.Sprintf("%d+/%d− p=%.2f", better, worse, signTest(better, worse)), verdict)
	return regressions
}

// signTest is the two-sided sign test's p-value for better pairs against
// worse ones, ties left out.
func signTest(better, worse int) float64 {
	n, lo := better+worse, min(better, worse)
	if n == 0 {
		return 1
	}
	tail := 0.0
	for i := 0; i <= lo; i++ {
		tail += binomial(n, i)
	}
	return math.Min(1, 2*tail/math.Pow(2, float64(n)))
}

func binomial(n, k int) float64 {
	c := 1.0
	for i := 1; i <= k; i++ {
		c = c * float64(n-k+i) / float64(i)
	}
	return c
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// quantile is the q-quantile of xs, interpolated linearly between its
// order statistics.
func quantile(xs []float64, q float64) float64 {
	s := slices.Sorted(slices.Values(xs))
	pos := q * float64(len(s)-1)
	i := int(pos)
	if i+1 == len(s) {
		return s[i]
	}
	return s[i] + (pos-float64(i))*(s[i+1]-s[i])
}

func constant(xs []float64) bool {
	return !slices.ContainsFunc(xs, func(x float64) bool { return x != xs[0] })
}

func lastLine(s string) string {
	s = strings.TrimRight(s, "\n")
	return s[strings.LastIndexByte(s, '\n')+1:]
}

// git runs git with args and returns its trimmed standard output.
func git(args ...string) (string, error) {
	var out, errOut bytes.Buffer
	cmd := exec.Command("git", args...)
	cmd.Stdout, cmd.Stderr = &out, &errOut
	if err := cmd.Run(); err != nil {
		return "", fmt.Errorf("git %s: %v: %s", strings.Join(args, " "), err, strings.TrimSpace(errOut.String()))
	}
	return strings.TrimSpace(out.String()), nil
}
