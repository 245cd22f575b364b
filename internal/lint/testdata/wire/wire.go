// Package wirefix is the asymwire analyzer's fixture: registered and
// unregistered message types on the sim.Env send surface. It is
// type-checked, never run, so its tags need no wire.TagRanges row.
package wirefix

import (
	"repro/internal/sim"
	"repro/internal/wire"
)

type goodMsg struct{ A int }

type helperMsg struct{ B int }

type badMsg struct{ C int }

// localMsg is a self-addressed control message.
//
//lint:unwired fixture: never crosses a wire
type localMsg struct{}

type inlineMsg struct{}

func init() {
	wire.Register(900, goodMsg{}, wire.Codec{})
	registerFixture(901, helperMsg{})
}

// registerFixture forwards to wire.Register (the helper-indirection shape
// the analyzer resolves through one level).
func registerFixture(tag uint64, prototype any) {
	wire.Register(tag, prototype, wire.Codec{})
}

func sendAll(env sim.Env, m sim.Message) {
	env.Broadcast(goodMsg{})
	env.Send(0, helperMsg{})
	env.Broadcast(badMsg{}) // want `no internal/wire\.Register codec`
	env.Send(env.Self(), localMsg{})
	//lint:unwired fixture: inline suppression at the send site
	env.Broadcast(inlineMsg{})
	env.Broadcast(m) // interface-typed: checked at the construction site
}
