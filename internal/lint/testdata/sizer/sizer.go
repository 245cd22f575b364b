// Package sizerfix is the asymsizer analyzer's fixture: SimSize
// implementations shadowed by a registered codec, with and without the
// //lint:sizer-fallback annotation, and one with no codec at all.
package sizerfix

import "repro/internal/wire"

type codecMsg struct{}

func (codecMsg) SimSize() int { return 8 } // want `authoritative for sim\.MessageSize`

type fallbackMsg struct{}

// SimSize is a deliberate fallback.
//
//lint:sizer-fallback fixture: the codec declines some values
func (fallbackMsg) SimSize() int { return 8 }

type plainMsg struct{}

// SimSize with no registered codec is the live sizing path: not flagged.
func (plainMsg) SimSize() int { return 8 }

// Run reports an unknown directive name whichever analyzers run.
//
//lint:sizer-fallbak misspelled directive name // want `^unknown lint directive //lint:sizer-fallbak \(known: unwired, sizer-fallback\)$`
func typoDirective() {}

func init() {
	wire.Register(905, codecMsg{}, wire.Codec{})
	wire.Register(906, fallbackMsg{}, wire.Codec{})
}
