package harness

import (
	"fmt"
	"strings"
	"text/tabwriter"

	"repro/internal/quorum"
	"repro/internal/scenario"
	"repro/internal/sim"
	"repro/internal/types"
)

// Scenario sweeps: the adversarial conformance layer. Each built-in
// scenario (internal/scenario) bundles a fault schedule with the Definition
// 4.1 properties it must preserve; this file runs scenario × seed through
// the consensus harness, checks every run's declared properties over the
// maximal guild of the scenario's faulty set, and aggregates per-scenario
// stats with first-failing (scenario, seed) attribution.

// ScenarioSweepConfig parameterizes a scenario sweep. Every run has 6
// waves, one transaction per block and uniform 1..20 latency: the
// envelope the built-in scenarios' fault windows are calibrated against.
type ScenarioSweepConfig struct {
	// Trust is the quorum system (default threshold(4,1) in explicit
	// *quorum.System form, the form the built-in scenarios' outputs were
	// recorded with).
	Trust *quorum.System
}

// ScenarioRiderConfig instantiates def for one seed under the sweep
// config: a fresh Scenario (wrappers carry per-run state, so call it once
// per run) over the base consensus configuration.
func ScenarioRiderConfig(def scenario.Definition, base ScenarioSweepConfig, seed int64) RiderConfig {
	trust := base.Trust
	if trust == nil {
		var err error
		if trust, err = quorum.NewThresholdExplicit(4, 1); err != nil {
			panic(err)
		}
	}
	sc := def.Build(trust.N(), seed)
	return RiderConfig{
		Kind:       Asymmetric,
		Trust:      trust,
		NumWaves:   6,
		TxPerBlock: 1,
		Seed:       seed,
		CoinSeed:   seed*31 + 7,
		Latency:    sim.UniformLatency{Min: 1, Max: 20},
		Scenario:   &sc,
	}
}

// Verdict tells how a run passed its check: Vacuous when the maximal
// guild is empty, so there was nothing to check, else Held.
type Verdict int

const (
	Held Verdict = iota
	Vacuous
)

// CheckScenarioProperties is the one Definition 4.1 check of a run: it
// asserts every property the run's Scenario declares over the maximal
// guild of the scenario's faulty set, and that the run sent no message
// the wire codec cannot encode (sim.Metrics.EncodeErrors is 0): over TCP
// such a send would be dropped. A run whose guild is empty passes as
// Vacuous, any other passing run as Held. A run without a Scenario
// declares no property, so only the codec check applies.
func CheckScenarioProperties(res RiderResult) (Verdict, error) {
	sc := res.Config.Scenario
	if sc == nil {
		sc = &scenario.Scenario{}
	}
	if res.Metrics.EncodeErrors > 0 {
		return Held, fmt.Errorf("scenario %s: %d sends of a message with no wire codec", sc.Name, res.Metrics.EncodeErrors)
	}
	trust := res.Config.Trust
	guild := trust.MaximalGuild(sc.FaultySet(trust.N()))
	if guild.IsEmpty() {
		return Vacuous, nil
	}
	touched := sc.TouchedSet(trust.N())
	for _, prop := range sc.Properties {
		var err error
		switch prop {
		case scenario.TotalOrder:
			err = res.CheckTotalOrder(guild)
		case scenario.Agreement:
			err = res.CheckAgreement(guild)
		case scenario.Integrity:
			err = res.CheckIntegrity(guild)
		case scenario.Validity:
			// Propose from an untouched guild member: a churned process's
			// early vertices exist but its delivery horizon is unreliable.
			proposer := types.ProcessID(-1)
			for _, p := range guild.Members() {
				if !touched.Contains(p) {
					proposer = p
					break
				}
			}
			if proposer >= 0 {
				err = res.CheckValidity(guild, proposer, 1)
			}
		case scenario.Liveness:
			// Every guild member with no node fault must decide at least
			// one wave. Faulted-but-correct members (buffered churn) are
			// exempt: a bounded run may quiesce before the delivery that
			// triggers their recovery.
			for _, p := range guild.Members() {
				if touched.Contains(p) {
					continue
				}
				nr, ok := res.Nodes[p]
				if !ok || nr.DecidedWave <= 0 {
					err = fmt.Errorf("liveness violated: guild member %v decided no wave", p)
					break
				}
			}
		}
		if err != nil {
			return Held, fmt.Errorf("scenario %s: %w", sc.Name, err)
		}
	}
	return Held, nil
}

// ScenarioSweepStats aggregates one scenario's multi-seed sweep.
type ScenarioSweepStats struct {
	// Name is the scenario's registry name.
	Name string
	// RiderSweepStats carries the usual Seeds/Runs/Failures/First/
	// Vacuous/HitLimits/Metrics aggregates.
	RiderSweepStats
}

// SweepScenario runs one scenario over the seed range and checks its
// declared properties on every run.
func SweepScenario(def scenario.Definition, seeds []int64, base ScenarioSweepConfig) ScenarioSweepStats {
	stats := SweepRider(seeds,
		func(seed int64) RiderConfig { return ScenarioRiderConfig(def, base, seed) },
		CheckScenarioProperties)
	return ScenarioSweepStats{Name: def.Name, RiderSweepStats: stats}
}

// ScenarioFailure names the first failing (scenario, seed) of a multi-
// scenario sweep, in (registry, seed) order.
type ScenarioFailure struct {
	Scenario string
	Seed     int64
	Err      error
}

// String implements fmt.Stringer.
func (f *ScenarioFailure) String() string {
	return fmt.Sprintf("scenario %s, seed %d: %v", f.Scenario, f.Seed, f.Err)
}

// SweepScenarios sweeps every definition over the seed range and returns
// per-scenario stats plus the first failing (scenario, seed), if any.
func SweepScenarios(defs []scenario.Definition, seeds []int64, base ScenarioSweepConfig) ([]ScenarioSweepStats, *ScenarioFailure) {
	out := make([]ScenarioSweepStats, 0, len(defs))
	var first *ScenarioFailure
	for _, def := range defs {
		stats := SweepScenario(def, seeds, base)
		out = append(out, stats)
		if first == nil && stats.First != nil {
			first = &ScenarioFailure{Scenario: def.Name, Seed: stats.First.Seed, Err: stats.First.Err}
		}
	}
	return out, first
}

// firstFailing starts the line ExpScenarios adds when a run fails.
const firstFailing = "\nFIRST FAILING: "

// Failed reports whether an experiment's output records a failed run:
// cmd/experiments then exits 1, so `make scenarios` gates.
func Failed(out string) bool { return strings.Contains(out, firstFailing) }

// ExpScenarios runs every built-in scenario over a seed range and
// tabulates per-scenario outcomes — the adversarial counterpart of
// ExpFaults (E16).
func ExpScenarios() string {
	const seedsPerScenario = 8
	stats, first := SweepScenarios(scenario.Builtins(), sim.SeedRange(1, seedsPerScenario), ScenarioSweepConfig{})

	var b strings.Builder
	w := tabwriter.NewWriter(&b, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, "scenario\tseeds ok\tvacuous\thit limits\tdecided nodes\tmessages\tdropped\tREADY* held\tnever counted\tfirst failure")
	for _, s := range stats {
		verdict := "—"
		if s.First != nil {
			verdict = s.First.String()
		}
		fmt.Fprintf(w, "%s\t%d/%d\t%d\t%d\t%d/%d\t%d\t%d\t%d\t%d\t%s\n",
			s.Name, s.Seeds-s.Failures, s.Seeds, s.Vacuous, s.HitLimits,
			s.DecidedNodes, s.Nodes, s.Metrics.MessagesSent, s.Metrics.MessagesDropped,
			s.HeldReadies, s.WaitingReadies, verdict)
	}
	w.Flush()
	if first != nil {
		fmt.Fprintf(&b, "%s%s\n", firstFailing, first)
	}
	b.WriteString("\neach scenario declares the Definition 4.1 properties it must preserve for the\n" +
		"maximal guild; partitions that heal and buffered crash-recovery keep the full\n" +
		"contract (liveness included), while information-destroying faults keep safety.\n" +
		"vacuous counts the seeds ok only because the maximal guild was empty.\n" +
		"READY* held counts READYs by reference that reached a process before their\n" +
		"voter's ECHO; never counted, those still held at the end because that ECHO\n" +
		"was lost (dropped, or sent to a process that was down). A full READY would\n" +
		"have counted.\n")
	return b.String()
}
