package main

import (
	"encoding/json"
	"os"
	"sort"
	"strings"
	"time"

	extdb "repro"
)

// span is one timed interval of the traced run. Spans of one operation
// share Trace (the operation's sequence number); Parent is the ID of the
// span that caused this one, 0 for the operation's root span.
type span struct {
	Trace  int
	ID     int
	Parent int
	Name   string
	Start  time.Duration // since the tracer's epoch
	Dur    time.Duration
	Args   map[string]any
}

// spanAgg accumulates, per span name, how often it ran, its inclusive
// time and its self time (inclusive minus what its children cover).
type spanAgg struct {
	Count int64
	Total time.Duration
	Self  time.Duration
}

// maxRetainedSpans bounds what one client keeps for the trace file. The
// aggregates cover every span; the file is for reading individual
// operations, and a few tens of thousands are more than anyone scrolls.
const maxRetainedSpans = 40000

// clientTrace is one client's span recorder. A nil *clientTrace records
// nothing, so untraced runs pay only nil checks.
type clientTrace struct {
	tid      int
	epoch    time.Time
	nextID   int
	op       []span // spans of the operation in flight
	retained []span
	agg      map[string]*spanAgg
	// Operator-tree totals from Session.QueryTraced, kept apart from the
	// span aggregates because they are per query, not per span name.
	queries      int64
	querySelf    time.Duration // Query span minus root operator
	scanTime     time.Duration // bottom operator (table access)
	upperTime    time.Duration // root operator minus bottom operator
	scanRows     int64
	scanBatches  int64
	rowsReturned int64
}

func newClientTrace(tid int, epoch time.Time) *clientTrace {
	return &clientTrace{tid: tid, epoch: epoch, agg: map[string]*spanAgg{}}
}

// begin opens a span under parent (0 starts a new operation) and returns
// its ID.
func (t *clientTrace) begin(trace, parent int, name string) int {
	if t == nil {
		return 0
	}
	t.nextID++
	t.op = append(t.op, span{Trace: trace, ID: t.nextID, Parent: parent, Name: name, Start: time.Since(t.epoch), Dur: -1})
	return t.nextID
}

// end closes the span. Closing an operation's root span folds the whole
// operation into the aggregates.
func (t *clientTrace) end(id int) {
	if t == nil {
		return
	}
	for i := len(t.op) - 1; i >= 0; i-- {
		if t.op[i].ID != id {
			continue
		}
		t.op[i].Dur = time.Since(t.epoch) - t.op[i].Start
		if t.op[i].Parent == 0 {
			t.flush()
		}
		return
	}
}

func (t *clientTrace) flush() {
	self := selfTimes(t.op)
	for i, s := range t.op {
		a := t.agg[s.Name]
		if a == nil {
			a = &spanAgg{}
			t.agg[s.Name] = a
		}
		a.Count++
		a.Total += s.Dur
		a.Self += self[i]
	}
	if room := maxRetainedSpans - len(t.retained); room >= len(t.op) {
		t.retained = append(t.retained, t.op...)
	}
	t.op = t.op[:0]
}

// attachOps hangs the operator tree of a traced query under its Query
// span as exec.* children. The engine reports each operator's inclusive
// time but not when it ran, so the spans are laid out right-aligned and
// nested inside the Query span: planning first, then execution, each
// operator inside the one that pulls from it.
func (t *clientTrace) attachOps(queryID int, qt *extdb.QueryTrace, rowsReturned int) {
	if t == nil || qt == nil || len(qt.Ops) == 0 {
		return
	}
	var q *span
	for i := range t.op {
		if t.op[i].ID == queryID {
			q = &t.op[i]
		}
	}
	if q == nil {
		return
	}
	trace, qEnd, qDur := q.Trace, q.Start+q.Dur, q.Dur
	parent := queryID
	for i := len(qt.Ops) - 1; i >= 0; i-- { // root first
		op := qt.Ops[i]
		d := op.Elapsed()
		if d > qDur {
			d = qDur
		}
		t.nextID++
		t.op = append(t.op, span{
			Trace: trace, ID: t.nextID, Parent: parent, Name: "exec." + operatorName(op.Desc),
			Start: qEnd - d, Dur: d,
			Args: map[string]any{"desc": op.Desc, "rows": op.Rows, "batches": op.Batches},
		})
		parent = t.nextID
	}
	root, scan := qt.Ops[len(qt.Ops)-1], qt.Ops[0]
	t.queries++
	if d := qDur - root.Elapsed(); d > 0 {
		t.querySelf += d
	}
	t.scanTime += scan.Elapsed()
	if d := root.Elapsed() - scan.Elapsed(); d > 0 {
		t.upperTime += d
	}
	t.scanRows += scan.Rows
	t.scanBatches += scan.Batches
	t.rowsReturned += int64(rowsReturned)
}

// operatorName shortens an operator description ("TABLE ACCESS FULL ORDERS")
// to its first word, lowercased, for the span name.
func operatorName(desc string) string {
	words := strings.FieldsFunc(desc, func(r rune) bool { return r == ' ' || r == '(' })
	if len(words) == 0 {
		return "op"
	}
	return strings.ToLower(words[0])
}

// selfTimes returns, for each span, its duration minus the part of its
// interval that its direct children cover. Overlapping children are
// counted once and a child is clipped to its parent's interval.
func selfTimes(spans []span) []time.Duration {
	kids := map[int][]int{}
	for i, s := range spans {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], i)
		}
	}
	out := make([]time.Duration, len(spans))
	for i, s := range spans {
		ks := kids[s.ID]
		sort.Slice(ks, func(a, b int) bool { return spans[ks[a]].Start < spans[ks[b]].Start })
		covered, edge := time.Duration(0), s.Start
		for _, k := range ks {
			lo, hi := spans[k].Start, spans[k].Start+spans[k].Dur
			if lo < edge {
				lo = edge
			}
			if end := s.Start + s.Dur; hi > end {
				hi = end
			}
			if hi > lo {
				covered += hi - lo
				edge = hi
			}
		}
		out[i] = s.Dur - covered
	}
	return out
}

// mergeAgg folds the per-client aggregates into one table.
func mergeAgg(clients []*clientTrace) map[string]spanAgg {
	out := map[string]spanAgg{}
	for _, c := range clients {
		for name, a := range c.agg {
			m := out[name]
			m.Count += a.Count
			m.Total += a.Total
			m.Self += a.Self
			out[name] = m
		}
	}
	return out
}

// writeChromeTrace writes the retained spans as Chrome trace-event JSON
// (complete events, microsecond timestamps, one thread per client). Open
// it in chrome://tracing or https://ui.perfetto.dev.
func writeChromeTrace(path string, clients []*clientTrace) error {
	type event struct {
		Name string         `json:"name"`
		Cat  string         `json:"cat"`
		Ph   string         `json:"ph"`
		Ts   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		Pid  int            `json:"pid"`
		Tid  int            `json:"tid"`
		Args map[string]any `json:"args"`
	}
	var events []event
	for _, c := range clients {
		for _, s := range c.retained {
			args := map[string]any{"trace": s.Trace, "span": s.ID, "parent": s.Parent}
			for k, v := range s.Args {
				args[k] = v
			}
			events = append(events, event{
				Name: s.Name, Cat: "bench", Ph: "X",
				Ts: float64(s.Start) / 1e3, Dur: float64(s.Dur) / 1e3,
				Pid: 1, Tid: c.tid, Args: args,
			})
		}
	}
	data, err := json.Marshal(map[string]any{"traceEvents": events, "displayTimeUnit": "ms"})
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
