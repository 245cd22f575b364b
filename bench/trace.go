package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"reflect"

	"repro/internal/sim"
	"repro/internal/types"
)

// Message classes of core.receive spans, by the Go type of the message.
const (
	classSend = iota
	classEcho
	classReady
	classCtl
	classCoin
	classOther // Init, simulator ticks, anything unknown
	numClasses
)

var classNames = [numClasses]string{"arb_send", "arb_echo", "arb_ready", "ctl", "coin", "other"}

var classOfType = map[string]int{
	"broadcast.sendMsg":  classSend,
	"broadcast.echoMsg":  classEcho,
	"broadcast.readyMsg": classReady,
	"core.ackMsg":        classCtl,
	"core.readyMsg":      classCtl,
	"core.confirmMsg":    classCtl,
	"coin.ShareMsg":      classCoin,
}

// Caps on the spans kept for the span file; the per-class totals below
// always cover every span.
const (
	maxMessageSpans = 30000
	maxCommandSpans = 5000
)

// span is one entry of the span file. Times are nanoseconds since the
// run's epoch. ID ties the spans of one command together ("<replica>.<seq>")
// or names the message type; Parent is the Seq of the span that caused it.
type span struct {
	Name    string `json:"name"`
	ID      string `json:"id"`
	Replica int    `json:"replica"`
	Seq     int    `json:"seq"`
	Parent  int    `json:"parent,omitempty"`
	Start   int64  `json:"start_ns"`
	End     int64  `json:"end_ns"`
}

type classTotal struct {
	count       int
	total, self int64 // ns; self = total minus the service.apply children
}

// lane is one replica's share of the tracer, touched only by the goroutine
// that runs that replica.
type lane struct {
	classes [numClasses]classTotal
	types   map[reflect.Type]int
	spans   []span
	nextSeq int
	curSeq  int   // Seq reserved for the core.receive span in progress
	childNs int64 // service.apply time inside it
}

// tracer records spans in memory; write puts them in the span file.
type tracer struct {
	workload string
	lanes    []lane
	commands []span
	cmdCount int
	keep     int // message spans kept per lane
}

func newTracer(workload string, n int) *tracer {
	t := &tracer{workload: workload, lanes: make([]lane, n), keep: maxMessageSpans / n}
	for i := range t.lanes {
		t.lanes[i].types = map[reflect.Type]int{}
		t.lanes[i].nextSeq = 1
	}
	return t
}

func (l *lane) classify(msg sim.Message) (int, reflect.Type) {
	if msg == nil {
		return classOther, nil
	}
	rt := reflect.TypeOf(msg)
	c, ok := l.types[rt]
	if !ok {
		if c, ok = classOfType[rt.String()]; !ok {
			c = classOther
		}
		l.types[rt] = c
	}
	return c, rt
}

// enter opens a core.receive span on replica p.
func (t *tracer) enter(p types.ProcessID) {
	l := &t.lanes[p]
	l.curSeq = l.nextSeq
	l.nextSeq++
	l.childNs = 0
}

// apply records a service.apply span inside the open core.receive span.
func (t *tracer) apply(p types.ProcessID, t0, t1 int64, txs int) {
	l := &t.lanes[p]
	l.childNs += t1 - t0
	if len(l.spans) < t.keep {
		l.spans = append(l.spans, span{Name: "service.apply", ID: fmt.Sprintf("block of %d", txs),
			Replica: int(p), Seq: l.nextSeq, Parent: l.curSeq, Start: t0, End: t1})
		l.nextSeq++
	}
}

// exit closes the core.receive span opened by enter.
func (t *tracer) exit(p types.ProcessID, msg sim.Message, t0, t1 int64) {
	l := &t.lanes[p]
	c, rt := l.classify(msg)
	ct := &l.classes[c]
	ct.count++
	ct.total += t1 - t0
	ct.self += t1 - t0 - l.childNs
	if len(l.spans) < t.keep {
		id := "init"
		if rt != nil {
			id = rt.String()
		}
		l.spans = append(l.spans, span{Name: "core.receive", ID: id, Replica: int(p), Seq: l.curSeq, Start: t0, End: t1})
	}
}

// command records the four contiguous spans of one applied command.
func (t *tracer) command(p, seq int, due, accepted, proposed, applyStart, applied int64) {
	t.cmdCount++
	if t.cmdCount > maxCommandSpans {
		return
	}
	id := fmt.Sprintf("%d.%d", p, seq)
	for _, s := range []span{
		{Name: "client.wait", Start: due, End: accepted},
		{Name: "service.queue", Start: accepted, End: proposed},
		{Name: "core.inflight", Start: proposed, End: applyStart},
		{Name: "service.apply", Start: applyStart, End: applied},
	} {
		s.ID, s.Replica = id, p
		t.commands = append(t.commands, s)
	}
}

// totals sums the lanes' core.receive spans by class.
func (t *tracer) totals() (classes [numClasses]classTotal) {
	for i := range t.lanes {
		for c, ct := range t.lanes[i].classes {
			classes[c].count += ct.count
			classes[c].total += ct.total
			classes[c].self += ct.self
		}
	}
	return classes
}

// write puts the kept spans in dir/trace-<workload>.json.
func (t *tracer) write(dir string, st stamp, note string) error {
	type classOut struct {
		Class   string `json:"class"`
		Count   int    `json:"count"`
		TotalNs int64  `json:"total_ns"`
		SelfNs  int64  `json:"self_ns"`
	}
	out := struct {
		Workload string     `json:"workload"`
		Stamp    stamp      `json:"stamp"`
		Note     string     `json:"note"`
		Commands int        `json:"commands_traced"`
		Classes  []classOut `json:"core_receive_by_class"`
		Spans    []span     `json:"spans"`
	}{Workload: t.workload, Stamp: st, Note: note, Commands: t.cmdCount}
	for c, ct := range t.totals() {
		out.Classes = append(out.Classes, classOut{classNames[c], ct.count, ct.total, ct.self})
	}
	out.Spans = append(out.Spans, t.commands...)
	for i := range t.lanes {
		out.Spans = append(out.Spans, t.lanes[i].spans...)
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	b, err := json.Marshal(out)
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, "trace-"+t.workload+".json"), b, 0o644)
}
