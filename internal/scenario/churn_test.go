package scenario

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/sim"
	"repro/internal/types"
	"repro/internal/wire"
)

// stamp is the churn tests' message: At is the virtual time it was sent.
type stamp struct{ At sim.VirtualTime }

// tick is a stamper's self-addressed clock; a self-send needs no codec.
type tick struct{}

// A stamp sent to another process counts in the send metrics only if it
// encodes, so it has a codec in the test band.
func init() {
	wire.Register(1110, stamp{}, wire.Codec{
		Append: func(dst []byte, msg any) ([]byte, error) {
			return wire.AppendUvarint(dst, uint64(msg.(stamp).At)), nil
		},
		Decode: func(b []byte) (any, []byte, error) {
			v, rest, err := wire.ReadUvarint(b)
			return stamp{At: sim.VirtualTime(v)}, rest, err
		},
	})
}

// hop is one stamp on one link: when it was sent and when it arrived.
type hop struct {
	from, to      types.ProcessID
	sent, arrived sim.VirtualTime
}

// stampLog is every stamp a run sent and every one it delivered.
type stampLog struct{ sent, got []hop }

// stamper sends a stamp to every process, itself included, at each
// instant before until at which it receives anything. With clock it keeps
// one self-addressed tick in flight, so it acts every link latency.
type stamper struct {
	clock bool
	until sim.VirtualTime
	log   *stampLog
	last  sim.VirtualTime
}

func (s *stamper) Init(e sim.Env) {
	if s.clock {
		e.Send(e.Self(), tick{})
	}
}

func (s *stamper) Receive(e sim.Env, from types.ProcessID, msg sim.Message) {
	now, self := e.Now(), e.Self()
	switch m := msg.(type) {
	case stamp:
		s.log.got = append(s.log.got, hop{from: from, to: self, sent: m.At, arrived: now})
	case tick:
		if now < s.until {
			e.Send(self, tick{})
		}
	}
	if now >= s.until || now == s.last {
		return
	}
	s.last = now
	for q := types.ProcessID(0); int(q) < e.N(); q++ {
		s.log.sent = append(s.log.sent, hop{from: self, to: q, sent: now})
		e.Send(q, stamp{At: now})
	}
}

// churnRun runs three stampers under Churn(2, crashAt, recoverAt,
// buffer) at constant latency: processes 0 and 1 keep a clock, the
// churned process 2 acts only on what reaches it.
func churnRun(buffer bool, crashAt, recoverAt, latency, until sim.VirtualTime) (*stampLog, *sim.Metrics) {
	sc := Scenario{Faults: []NodeFault{Churn(2, crashAt, recoverAt, buffer)}}
	log := &stampLog{}
	nodes := make([]sim.Node, 3)
	for i := range nodes {
		nodes[i] = &stamper{clock: i != 2, until: until, log: log, last: -1}
	}
	r := sim.NewRunner(sim.Config{N: 3, Seed: 1, Latency: sim.ConstantLatency(latency), Fault: sc.FaultPlane()}, nodes)
	r.Run(0)
	return log, r.Metrics()
}

// TestChurnRuleBuffered pins what buffered Churn's link rule does to
// each link: every message sent to process 2, by it or to itself while it
// is down is held until it recovers, and counts in MessagesDropped, not
// MessagesSent; every other message, those between processes 0 and 1
// during the outage included, arrives after exactly one link latency.
func TestChurnRuleBuffered(t *testing.T) { checkChurnRule(t, true) }

// TestChurnRuleLossy pins what lossy Churn's link rule does to each link:
// every message sent to process 2, by it or to itself while it is down is
// dropped and counted in MessagesDropped, not MessagesSent; every other
// message arrives after exactly one link latency.
func TestChurnRuleLossy(t *testing.T) { checkChurnRule(t, false) }

// checkChurnRule runs the churn fault plane twice. The first run sends on
// each of 2's links at crashAt−1 and during the outage, and to 2 at
// recoverAt; the second, whose latency outlasts its outage, makes 2 send
// at recoverAt.
func checkChurnRule(t *testing.T, buffer bool) {
	t.Helper()
	runs := []struct {
		crashAt, recoverAt, latency, until sim.VirtualTime
	}{
		{crashAt: 5, recoverAt: 10, latency: 1, until: 20},
		{crashAt: 4, recoverAt: 6, latency: 3, until: 12},
	}
	covered := map[string]bool{}
	for _, run := range runs {
		log, m := churnRun(buffer, run.crashAt, run.recoverAt, run.latency, run.until)
		arrivals := map[hop][]sim.VirtualTime{}
		for _, h := range log.got {
			key := hop{from: h.from, to: h.to, sent: h.sent}
			arrivals[key] = append(arrivals[key], h.arrived)
		}
		dropped, sent := 0, 0
		for _, h := range log.sent {
			class := "between 0 and 1"
			switch {
			case h.from == 2 && h.to == 2:
				class = "2 to itself"
			case h.from == 2:
				class = "from 2"
			case h.to == 2:
				class = "to 2"
			case h.from == h.to:
				class = "self"
			}
			when := "outside"
			switch {
			case h.sent == run.crashAt-1:
				when = "at crashAt-1"
			case h.sent == run.recoverAt:
				when = "at recoverAt"
			case h.sent >= run.crashAt && h.sent < run.recoverAt:
				when = "during the outage"
			}
			covered[class+" "+when] = true
			down := (h.from == 2 || h.to == 2) && when == "during the outage"
			got := arrivals[h]
			switch {
			case down && !buffer:
				dropped++
				if len(got) != 0 {
					t.Errorf("lossy %+v: %s sent %s at %d arrived at %v, want dropped", run, class, when, h.sent, got)
				}
				continue
			case down:
				if len(got) != 1 || got[0] < run.recoverAt {
					t.Errorf("buffered %+v: %s sent %s at %d arrived at %v, want once at or after %d",
						run, class, when, h.sent, got, run.recoverAt)
				}
			default:
				if len(got) != 1 || got[0] != h.sent+run.latency {
					t.Errorf("buffer=%v %+v: %s sent %s at %d arrived at %v, want once at %d",
						buffer, run, class, when, h.sent, got, h.sent+run.latency)
				}
			}
			if h.from != h.to {
				sent++
			}
		}
		if m.MessagesDropped != dropped || m.MessagesSent != sent || m.EncodeErrors != 0 {
			t.Errorf("buffer=%v %+v: dropped %d, sent %d, encode errors %d; want %d, %d, 0",
				buffer, run, m.MessagesDropped, m.MessagesSent, m.EncodeErrors, dropped, sent)
		}
	}
	for _, class := range []string{"to 2", "from 2", "2 to itself"} {
		for _, when := range []string{"at crashAt-1", "during the outage", "at recoverAt"} {
			if !covered[class+" "+when] {
				t.Errorf("buffer=%v: no message %s was sent %s", buffer, class, when)
			}
		}
	}
	if !covered["between 0 and 1 during the outage"] {
		t.Errorf("buffer=%v: no message between 0 and 1 was sent during the outage", buffer)
	}
}

// TestChurnRejectsEmptyWindow pins Churn's guard: a process down from
// time 0 is Mute, and an outage that never ends is a crash, not churn,
// so Churn panics on both when the scenario is built.
func TestChurnRejectsEmptyWindow(t *testing.T) {
	for _, tc := range []struct {
		crashAt, recoverAt sim.VirtualTime
		want               string
	}{
		{0, 10, "crashAt > 0"},
		{-1, 10, "crashAt > 0"},
		{5, 0, "recoverAt 0 must be after crashAt 5"},
		{5, 5, "recoverAt 5 must be after crashAt 5"},
	} {
		func() {
			defer func() {
				msg := fmt.Sprint(recover())
				if !strings.Contains(msg, tc.want) {
					t.Errorf("Churn(crashAt %d, recoverAt %d) panicked with %q, want %q",
						tc.crashAt, tc.recoverAt, msg, tc.want)
				}
			}()
			Churn(0, tc.crashAt, tc.recoverAt, true)
		}()
	}
}
