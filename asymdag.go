package asymdag

import (
	"repro/internal/coin"
	"repro/internal/core"
	"repro/internal/gather"
	"repro/internal/harness"
	"repro/internal/quorum"
	"repro/internal/rider"
	"repro/internal/scenario"
	"repro/internal/service"
	"repro/internal/sim"
	"repro/internal/transport"
	"repro/internal/types"
)

// Re-exported foundation types. The library's public surface is defined
// here; internal packages hold the implementations.

type (
	// ProcessID identifies a process (zero-based).
	ProcessID = types.ProcessID
	// Set is a process-set bitset.
	Set = types.Set

	// System is an explicit asymmetric Byzantine quorum system.
	System = quorum.System
	// Threshold is the classic n-of-which-f-may-fail assumption.
	Threshold = quorum.Threshold
	// Assumption is the trust interface protocols consume. It is closed:
	// System and Threshold are its only implementations.
	Assumption = quorum.Assumption
	// FederatedConfig parameterizes the Stellar-flavoured generator.
	FederatedConfig = quorum.FederatedConfig

	// CoinSource elects wave leaders.
	CoinSource = coin.Source

	// GatherKind selects a gather protocol.
	GatherKind = gather.Kind
	// GatherConfig configures a gather execution.
	GatherConfig = gather.RunConfig
	// GatherResult is a gather execution's outcome.
	GatherResult = gather.RunResult

	// RiderConfig configures a consensus execution.
	RiderConfig = harness.RiderConfig
	// RiderResult is a consensus execution's outcome.
	RiderResult = harness.RiderResult

	// LatencyModel controls simulated message delays.
	LatencyModel = sim.LatencyModel
	// UniformLatency delays uniformly in [Min, Max].
	UniformLatency = sim.UniformLatency
	// ConstantLatency delays every message equally.
	ConstantLatency = sim.ConstantLatency
	// FavoredLinksLatency is the adversarial schedule of Appendix A.
	FavoredLinksLatency = sim.FavoredLinksLatency
)

// Protocol selector constants.
const (
	GatherThreeRound    = gather.KindThreeRound
	GatherConstantRound = gather.KindConstantRound
	RiderAsymmetric     = harness.Asymmetric

	// GatherUsePlain uses best-effort broadcast — valid with correct
	// senders; the Appendix A adversarial executions use it so the
	// schedule acts directly on the protocol rounds.
	GatherUsePlain = gather.UsePlain
)

// NewSet returns an empty set over a universe of n processes.
func NewSet(n int) Set { return types.NewSet(n) }

// NewSetOf returns a set containing the given members.
func NewSetOf(n int, members ...ProcessID) Set { return types.NewSetOf(n, members...) }

// FullSet returns the set of all n processes.
func FullSet(n int) Set { return types.FullSet(n) }

// NewThreshold returns the threshold assumption (panics unless n > 3f).
func NewThreshold(n, f int) Threshold { return quorum.NewThreshold(n, f) }

// NewThresholdExplicit materializes the threshold system explicitly (for
// small n).
func NewThresholdExplicit(n, f int) (*System, error) { return quorum.NewThresholdExplicit(n, f) }

// Canonical derives canonical quorums (complements of fail-prone sets).
func Canonical(n int, failProne [][]Set) (*System, error) { return quorum.Canonical(n, failProne) }

// NewFederated generates a Stellar-flavoured tiered system.
func NewFederated(cfg FederatedConfig) (*System, error) { return quorum.NewFederated(cfg) }

// Counterexample returns the paper's 30-process Figure 1 system.
func Counterexample() *System { return quorum.Counterexample() }

// NewPRFCoin returns the seeded common coin shared by a run's nodes.
func NewPRFCoin(seed int64, n int) CoinSource { return coin.NewPRF(seed, n) }

// FaultBehavior is a process's state machine as the simulator and the TCP
// host run it: a protocol node, or a stand-in a ScenarioNodeFault wraps
// around or puts in place of one.
type FaultBehavior = sim.Node

// RunGather executes one gather instance across a simulated cluster.
func RunGather(cfg GatherConfig) GatherResult { return gather.RunCluster(cfg) }

// RunConsensus executes one consensus instance across a simulated cluster.
func RunConsensus(cfg RiderConfig) RiderResult { return harness.RunRider(cfg) }

// Declarative adversarial scenarios. --------------------------------------

type (
	// Scenario is a declarative adversarial setup: timed link-fault rules
	// plus per-node fault wrappers, with the Definition 4.1 properties the
	// run is expected to keep.
	Scenario = scenario.Scenario
	// ScenarioRule is one timed link-fault rule (drop, duplicate, delay,
	// hold-until) over a link selector and a time window, decided when
	// the message is sent.
	ScenarioRule = scenario.Rule
	// ScenarioWindow is a half-open virtual-time activity window.
	ScenarioWindow = scenario.Window
	// ScenarioLinks selects the directed links a rule applies to.
	ScenarioLinks = scenario.Links
	// ScenarioProperty names a Definition 4.1 property a scenario declares.
	ScenarioProperty = scenario.Property
	// ScenarioNodeFault attaches a fault wrapper to one process.
	ScenarioNodeFault = scenario.NodeFault
	// ScenarioDefinition is a named, parameterized scenario builder.
	ScenarioDefinition = scenario.Definition
	// ScenarioSweepConfig parameterizes a scenario × seed sweep.
	ScenarioSweepConfig = harness.ScenarioSweepConfig
	// ScenarioSweepStats aggregates one scenario's sweep.
	ScenarioSweepStats = harness.ScenarioSweepStats
)

// AllScenarioProperties returns every Definition 4.1 property, for
// scenarios the protocol is expected to fully ride out.
func AllScenarioProperties() []ScenarioProperty { return scenario.AllProperties() }

// FindScenario looks a built-in scenario up by name.
func FindScenario(name string) (ScenarioDefinition, bool) { return scenario.Find(name) }

// LinksBetween selects links crossing between a and b (both directions).
func LinksBetween(a, b Set) ScenarioLinks { return scenario.Between(a, b) }

// MuteFault replaces p with the simplest Byzantine behaviour: a process
// that never sends a message (indistinguishable from an initial crash).
// The process counts as faulty.
func MuteFault(p ProcessID) ScenarioNodeFault { return scenario.Mute(p) }

// ChurnFault crashes p at crashAt and recovers it at recoverAt: every
// message sent to p, by p or to itself in [crashAt, recoverAt) is held
// until recoverAt with buffer (the process counts as correct), and
// dropped without (faulty). The window applies at send time, as for any
// link rule: a message in flight at crashAt still arrives, and p's
// replies to it are held or dropped. ChurnFault panics unless
// 0 < crashAt < recoverAt.
func ChurnFault(p ProcessID, crashAt, recoverAt int64, buffer bool) ScenarioNodeFault {
	return scenario.Churn(p, sim.VirtualTime(crashAt), sim.VirtualTime(recoverAt), buffer)
}

// SweepScenario runs one scenario across the seeds and aggregates stats;
// per-run properties are those the scenario declares.
func SweepScenario(def ScenarioDefinition, seeds []int64, cfg ScenarioSweepConfig) ScenarioSweepStats {
	return harness.SweepScenario(def, seeds, cfg)
}

// SeedRange returns seeds start, start+1, ..., start+count-1 for sweeps.
func SeedRange(start int64, count int) []int64 { return sim.SeedRange(start, count) }

// Long-lived replicated service mode. -------------------------------------

type (
	// ServiceConfig configures an indefinitely-running replicated service:
	// pipelined client batching, mandatory DAG garbage collection, and
	// periodic snapshot/compaction (see internal/service).
	ServiceConfig = service.Config
	// ServiceResult is a service run's outcome (per-replica reports plus
	// simulator metrics).
	ServiceResult = service.Result
	// ServiceStats aggregates sustained throughput, commit rate, and
	// pooled commit latency across a run's replicas.
	ServiceStats = harness.ServiceStats
)

// RunService executes one long-lived service cluster until the configured
// stop condition and collects per-replica reports.
func RunService(cfg ServiceConfig) ServiceResult { return service.Run(cfg) }

// SummarizeService computes run-level sustained-throughput and
// commit-latency statistics.
func SummarizeService(res ServiceResult) ServiceStats { return harness.SummarizeService(res) }

// CheckServiceSnapshots verifies byte-identical replica states at every
// shared snapshot wave, returning the number of comparisons made (0 =
// vacuous: no wave was shared).
func CheckServiceSnapshots(res ServiceResult) (int, error) { return service.CompareSnapshots(res) }

// ServiceScenarioConfig installs a named adversarial scenario (fault plane
// and node wrappers) for the given seed into a service configuration.
func ServiceScenarioConfig(def ScenarioDefinition, cfg ServiceConfig, seed int64) ServiceConfig {
	return harness.ServiceScenarioConfig(def, cfg, seed)
}

// Real-network deployment (TCP). -----------------------------------------

type (
	// ConsensusNode is one process of the asymmetric DAG consensus,
	// usable both under the simulator and over TCP.
	ConsensusNode = core.Node
	// ConsensusConfig configures a ConsensusNode.
	ConsensusConfig = core.Config
	// SyntheticWorkload generates labeled transactions for benchmarks.
	SyntheticWorkload = rider.SyntheticWorkload
	// TCPCluster is a fully wired loopback mesh of TCP hosts, one per
	// protocol node.
	TCPCluster = transport.LocalCluster
)

// NewConsensusNode creates an asymmetric-consensus process.
func NewConsensusNode(cfg ConsensusConfig) *ConsensusNode { return core.NewNode(cfg) }

// NewTCPCluster builds (without starting) a loopback TCP mesh running the
// given protocol nodes; see ExampleNewTCPCluster.
func NewTCPCluster(nodes []FaultBehavior) (*TCPCluster, error) {
	return transport.NewLocalCluster(nodes, 0)
}
