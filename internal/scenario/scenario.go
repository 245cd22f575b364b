// Package scenario is the declarative adversarial fault plane of the
// simulator: composable, timed fault stages that compile into sim.FaultPlane
// hooks and node wrappers, bundled with the Definition-4.1-style properties
// each scenario must preserve — so a scenario is a *test*, not just a
// schedule.
//
// # The DSL
//
// A Scenario is assembled from two orthogonal fault planes:
//
//   - Link rules (Rule): time-windowed, link-selected distributions of
//     drop, duplication and extra delay, decided when a message is sent
//     and layered over any base sim.LatencyModel. Partitions that heal
//     are a Rule whose HoldUntil equals the heal time: matched messages
//     exist but arrive after the heal, like a retransmitting transport.
//     Rules compile into one sim.FaultPlane via Scenario.FaultPlane.
//   - Node faults (NodeFault): per-process behaviours — the Byzantine
//     wrappers of this package (SelectiveNode, StaleReplayNode,
//     EquivocateNode) and the stand-ins that replace the node outright
//     (Mute, or a NodeFault literal whose Wrap ignores the inner node),
//     applied through Scenario.WrapNode, and link rules a fault brings
//     (NodeFault.Rules), which FaultPlane compiles after the scenario's
//     own. Crash-recover churn (Churn) is such a rule alone: to every
//     other process a crash that recovers looks like slow or lossy links.
//
// Each NodeFault declares whether the process still counts as a *correct*
// process (Correct): a buffered crash-recover node is indistinguishable
// from a correct process with slow links, so the paper's guarantees must
// hold AT it, while a drop-recovery or Byzantine node belongs in the
// faulty set the maximal guild is computed against.
//
// # Determinism contract
//
// A scenario run is a pure function of its seed. Everything here obeys
// the two rules that guarantee it:
//
//   - All randomized link decisions draw from the run RNG handed to
//     sim.FaultPlane.OnSend, which the simulator invokes at its
//     send-commit point, in the run's one event order.
//   - Node wrappers keep all state per node, in the Scenario built for
//     the run (sweeps run seeds concurrently, so nothing is shared between
//     runs), and make any randomized-looking choice (stale-replay cadence,
//     equivocation grouping) from deterministic counters or the scenario
//     seed; a node's sim.Env offers no randomness to draw from.
//
// A Scenario is a run's whole adversary: harness.RiderConfig and
// gather.RunConfig take one (nil = no faults), wrap their nodes with
// WrapNode and hand FaultPlane to the simulator, and
// harness.CheckScenarioProperties checks a run against the Scenario it
// ran. The registry of built-in scenarios lives in builtins.go; the
// harness package sweeps scenario × seed through harness.SweepScenarios.
package scenario

import (
	"fmt"
	"math/rand"

	"repro/internal/sim"
	"repro/internal/types"
)

// Property is a Definition-4.1-style guarantee a scenario declares it must
// preserve for the correct processes in the maximal guild.
type Property int

const (
	// TotalOrder: delivery sequences of guild members are prefix-compatible.
	TotalOrder Property = iota
	// Agreement: every vertex delivered by a guild member up to the
	// common decided prefix is delivered by all of them.
	Agreement
	// Integrity: no guild member delivers a vertex twice.
	Integrity
	// Validity: an early vertex of a guild member reaches every guild
	// member that decided far enough past it.
	Validity
	// Liveness: every guild member decides at least one wave.
	// (Scenarios that destroy information — lossy links, unbuffered
	// crashes — do not declare it.)
	Liveness
)

// String implements fmt.Stringer.
func (p Property) String() string {
	switch p {
	case TotalOrder:
		return "total-order"
	case Agreement:
		return "agreement"
	case Integrity:
		return "integrity"
	case Validity:
		return "validity"
	case Liveness:
		return "liveness"
	default:
		return fmt.Sprintf("Property(%d)", int(p))
	}
}

// SafetyProperties is the unconditional Definition 4.1 set every scenario
// should declare: safety never depends on the fault pattern.
func SafetyProperties() []Property {
	return []Property{TotalOrder, Agreement, Integrity}
}

// AllProperties adds Validity and Liveness to the safety set — the full
// contract of a scenario whose faults destroy no information.
func AllProperties() []Property {
	return []Property{TotalOrder, Agreement, Integrity, Validity, Liveness}
}

// Links selects the (from, to) pairs a rule affects; nil on a Rule means
// every link. Selectors must be pure functions.
type Links func(from, to types.ProcessID) bool

// FromSet matches messages sent by a member of s.
func FromSet(s types.Set) Links {
	return func(from, _ types.ProcessID) bool { return s.Contains(from) }
}

// Between matches cross-traffic between a and b, in either direction — the
// link set a partition of the cluster into a and b severs. Traffic inside
// one side (including self-delivery) never matches.
func Between(a, b types.Set) Links {
	return func(from, to types.ProcessID) bool {
		return (a.Contains(from) && b.Contains(to)) || (b.Contains(from) && a.Contains(to))
	}
}

// Window is a half-open activity window [From, Until) in virtual time.
// Until <= 0 means forever.
type Window struct {
	From, Until sim.VirtualTime
}

// Active reports whether the window covers time t.
func (w Window) Active(t sim.VirtualTime) bool {
	return t >= w.From && (w.Until <= 0 || t < w.Until)
}

// Jitter is a uniform extra-delay distribution over [Min, Max]. The zero
// value draws 0.
type Jitter struct {
	Min, Max sim.VirtualTime
}

func (j Jitter) draw(rng *rand.Rand) sim.VirtualTime {
	lo, hi := j.Min, j.Max
	if hi < lo {
		lo, hi = hi, lo
	}
	if hi <= 0 {
		return 0
	}
	if hi == lo {
		return lo
	}
	return lo + sim.VirtualTime(rng.Int63n(int64(hi-lo+1)))
}

// Rule is one composable, timed link-fault stage. All probabilistic
// decisions are drawn from the run RNG at the simulator's send-commit
// point, so a rule is deterministic per seed.
//
// Composition semantics when several rules match one message: the first
// matching Drop wins (later rules are not consulted for a dropped
// message), Duplicates add up, Delay draws add up, and the largest
// HoldUntil applies.
type Rule struct {
	// Window limits when the rule is active (zero value = always).
	Window Window
	// Links selects the affected links (nil = all links, including
	// self-delivery — see sim.FaultPlane's call order).
	Links Links

	// Drop is the probability a matched message is discarded.
	Drop float64
	// Duplicate is the probability a matched message is sent twice (the
	// copy gets its own latency draw, so it may arrive first).
	Duplicate float64
	// Delay is extra link delay added to every matched message.
	Delay Jitter
	// HoldUntil delays matched messages so they arrive no earlier than
	// this virtual time — the healing-partition primitive.
	HoldUntil sim.VirtualTime
}

func (r *Rule) matches(from, to types.ProcessID, now sim.VirtualTime) bool {
	return r.Window.Active(now) && (r.Links == nil || r.Links(from, to))
}

// NodeFault attaches a faulty behaviour to one process.
type NodeFault struct {
	// P is the process the fault applies to.
	P types.ProcessID
	// Correct reports whether the process still counts as a correct
	// process for property checking: true only for faults that delay or
	// duplicate information without destroying it (buffered
	// crash-recovery, stale replay of genuine messages). Byzantine and
	// lossy faults must leave it false so the guild excludes the process.
	Correct bool
	// Wrap, when not nil, builds the faulty behaviour around the process's
	// real protocol node. Wrappers that implement sim.Unwrapper keep the
	// inner node's results observable.
	Wrap func(inner sim.Node) sim.Node
	// Rules are link rules the fault brings with it (Churn's outage);
	// FaultPlane appends them to the scenario's own.
	Rules []Rule
}

// Scenario is one fully instantiated adversarial scenario: link rules plus
// node faults plus the properties that must survive them. Instances carry
// per-run wrapper state — build a fresh Scenario per execution (see
// Definition.Build).
type Scenario struct {
	// Name identifies the scenario in stats and failure reports.
	Name string
	// Rules are the link-fault stages, compiled by FaultPlane.
	Rules []Rule
	// Faults are the per-process behaviours, applied by WrapNode (and
	// their Rules by FaultPlane).
	Faults []NodeFault
	// Properties are the guarantees checked on every run.
	Properties []Property
}

// FaultPlane compiles the scenario's link rules, then those of its node
// faults in order, into a sim.FaultPlane for sim.Config.Fault. It returns
// nil when there is no rule (or no scenario), keeping the simulator on its
// unhooked hot path.
func (s *Scenario) FaultPlane() sim.FaultPlane {
	if s == nil {
		return nil
	}
	rules := s.Rules
	for i := range s.Faults {
		rules = append(rules[:len(rules):len(rules)], s.Faults[i].Rules...)
	}
	if len(rules) == 0 {
		return nil
	}
	return &plane{rules: rules}
}

// WrapNode applies the scenario's node faults for process p to its real
// protocol node. A nil scenario returns inner unchanged.
func (s *Scenario) WrapNode(p types.ProcessID, inner sim.Node) sim.Node {
	if s == nil {
		return inner
	}
	for i := range s.Faults {
		if s.Faults[i].P == p && s.Faults[i].Wrap != nil {
			inner = s.Faults[i].Wrap(inner)
		}
	}
	return inner
}

// FaultySet returns the processes that no longer count as correct — the
// set the maximal guild is computed against.
func (s *Scenario) FaultySet(n int) types.Set {
	out := types.NewSet(n)
	for i := range s.Faults {
		if !s.Faults[i].Correct {
			out.Add(s.Faults[i].P)
		}
	}
	return out
}

// plane is the compiled sim.FaultPlane over a rule list.
type plane struct {
	rules []Rule
}

var _ sim.FaultPlane = (*plane)(nil)

// OnSend implements sim.FaultPlane.
func (pl *plane) OnSend(from, to types.ProcessID, _ sim.Message, now sim.VirtualTime, rng *rand.Rand) sim.SendVerdict {
	var v sim.SendVerdict
	hold := sim.VirtualTime(0)
	for i := range pl.rules {
		r := &pl.rules[i]
		if !r.matches(from, to, now) {
			continue
		}
		if r.Drop > 0 && rng.Float64() < r.Drop {
			return sim.SendVerdict{Drop: true}
		}
		if r.Duplicate > 0 && rng.Float64() < r.Duplicate {
			v.Duplicates++
		}
		v.Extra += r.Delay.draw(rng)
		if r.HoldUntil > hold {
			hold = r.HoldUntil
		}
	}
	if hold > now && hold-now > v.Extra {
		v.Extra = hold - now
	}
	return v
}
