package scenario

import (
	"repro/internal/types"
)

// Built-in scenario registry. -------------------------------------------------
//
// Each Definition builds a fresh Scenario instance per run (wrappers carry
// per-run state) as a pure function of (n, seed): the same pair always
// yields the same faults, so a failing (scenario, seed) report replays
// exactly. The virtual-time constants are calibrated against the sweep
// default — threshold or small asymmetric systems, ~6 waves,
// UniformLatency{1,20}, which quiesce around virtual time 1100 — so every
// fault window opens after the protocol is under way and closes well
// before quiescence, leaving room for recovery to be observed.

// Definition names a built-in scenario and builds instances of it.
type Definition struct {
	// Name is the registry key.
	Name string
	// Desc is a one-line description for listings.
	Desc string
	// Build instantiates the scenario for an n-process run driven by seed.
	// It must be a pure function of (n, seed).
	Build func(n int, seed int64) Scenario
}

// victim derives the scenario's faulty process from the seed — a pure
// function, so the property checker can rebuild the same scenario from the
// run's recorded seed.
func victim(n int, seed int64) types.ProcessID {
	return types.ProcessID(uint64(seed) % uint64(n))
}

// Builtins returns the built-in scenario definitions, in registry order.
func Builtins() []Definition {
	return []Definition{
		{
			Name: "baseline",
			Desc: "no faults — the control every other scenario is measured against",
			Build: func(n int, seed int64) Scenario {
				return Scenario{Name: "baseline", Properties: AllProperties()}
			},
		},
		{
			Name: "partition-heal",
			Desc: "two halves split over [150,450), cross traffic held until the heal",
			Build: func(n int, seed int64) Scenario {
				a, b := types.NewSet(n), types.NewSet(n)
				for i := 0; i < n; i++ {
					if i < n/2 {
						a.Add(types.ProcessID(i))
					} else {
						b.Add(types.ProcessID(i))
					}
				}
				return Scenario{
					Name: "partition-heal",
					Rules: []Rule{{
						Window:    Window{From: 150, Until: 450},
						Links:     Between(a, b),
						HoldUntil: 450,
					}},
					// HoldUntil only delays; no information is lost, so the
					// full contract — liveness included — must survive.
					Properties: AllProperties(),
				}
			},
		},
		{
			Name: "partition-drop",
			Desc: "one process cut off over [150,400), cross traffic dropped (not healed)",
			Build: func(n int, seed int64) Scenario {
				p := victim(n, seed)
				isolated := types.NewSetOf(n, p)
				return Scenario{
					Name: "partition-drop",
					Rules: []Rule{{
						Window: Window{From: 150, Until: 400},
						Links:  Between(isolated, isolated.Complement()),
						Drop:   1,
					}},
					// Dropped broadcasts are permanently lost (the simulator
					// has no retransmission), so the cut-off process may
					// stall forever: safety only.
					Properties: SafetyProperties(),
				}
			},
		},
		{
			Name: "crash-recover",
			Desc: "one process down over [100,400) with buffered recovery",
			Build: func(n int, seed int64) Scenario {
				return Scenario{
					Name:       "crash-recover",
					Faults:     []NodeFault{Churn(victim(n, seed), 100, 400, true)},
					Properties: AllProperties(),
				}
			},
		},
		{
			Name: "churn-lossy",
			Desc: "one process down over [100,400), outage messages lost (faulty recovery)",
			Build: func(n int, seed int64) Scenario {
				return Scenario{
					Name:       "churn-lossy",
					Faults:     []NodeFault{Churn(victim(n, seed), 100, 400, false)},
					Properties: AllProperties(),
				}
			},
		},
		{
			Name: "rolling-churn",
			Desc: "two processes take turns being down (buffered), windows [100,300) and [300,500)",
			Build: func(n int, seed int64) Scenario {
				p := victim(n, seed)
				q := types.ProcessID((int(p) + 1) % n)
				return Scenario{
					Name: "rolling-churn",
					Faults: []NodeFault{
						Churn(p, 100, 300, true),
						Churn(q, 300, 500, true),
					},
					Properties: AllProperties(),
				}
			},
		},
		{
			Name: "lossy-early",
			Desc: "one process's outbound links drop 25% during startup [0,150)",
			Build: func(n int, seed int64) Scenario {
				// A single lossy sender, not global loss: with no
				// retransmission in the simulator, even modest loss on every
				// link deadlocks the whole cluster behind missing parents,
				// which makes every property vacuous. One lossy sender keeps
				// the other processes live while its own vertices may be
				// orphaned.
				p := victim(n, seed)
				return Scenario{
					Name: "lossy-early",
					Rules: []Rule{{
						Window: Window{Until: 150},
						Links:  FromSet(types.NewSetOf(n, p)),
						Drop:   0.25,
					}},
					// Early losses can orphan vertices permanently: safety only.
					Properties: SafetyProperties(),
				}
			},
		},
		{
			Name: "dup-reorder",
			Desc: "30% duplication and 0..15 extra jitter on every link, all run long",
			Build: func(n int, seed int64) Scenario {
				return Scenario{
					Name: "dup-reorder",
					Rules: []Rule{{
						Duplicate: 0.3,
						Delay:     Jitter{Max: 15},
					}},
					// Duplication and reordering destroy nothing: handlers
					// are required to be idempotent, so the full contract
					// holds.
					Properties: AllProperties(),
				}
			},
		},
		{
			Name: "selective-send",
			Desc: "one Byzantine process sends only to a proper subset of receivers",
			Build: func(n int, seed int64) Scenario {
				p := victim(n, seed)
				allow := types.FullSet(n)
				allow.Remove(types.ProcessID((int(p) + 1) % n))
				return Scenario{
					Name:       "selective-send",
					Faults:     []NodeFault{Selective(p, allow)},
					Properties: AllProperties(),
				}
			},
		},
		{
			Name: "stale-replay",
			Desc: "one Byzantine process re-broadcasts its oldest message after every broadcast",
			Build: func(n int, seed int64) Scenario {
				return Scenario{
					Name:       "stale-replay",
					Faults:     []NodeFault{StaleReplay(victim(n, seed), 1)},
					Properties: AllProperties(),
				}
			},
		},
		{
			Name: "equivocate",
			Desc: "one Byzantine process shows half the receivers a one-broadcast-stale history",
			Build: func(n int, seed int64) Scenario {
				p := victim(n, seed)
				groupA := types.NewSet(n)
				for i := 0; i < n; i += 2 {
					groupA.Add(types.ProcessID(i))
				}
				groupA.Add(p) // the sender must see its own genuine stream
				return Scenario{
					Name:       "equivocate",
					Faults:     []NodeFault{Equivocate(p, groupA)},
					Properties: AllProperties(),
				}
			},
		},
	}
}

// Find returns the built-in definition with the given name.
func Find(name string) (Definition, bool) {
	for _, d := range Builtins() {
		if d.Name == name {
			return d, true
		}
	}
	return Definition{}, false
}
