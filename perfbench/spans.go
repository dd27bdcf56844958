package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"time"
)

// span is one timed call from the benchmark into a layer of the program.
// Spans of one simulation run or one service job share Trace. A span with
// Count > 0 aggregates many short calls (every store.Sink.Emit of a run):
// Start and End bound them and Busy is their summed duration. For an
// ordinary span Busy is End - Start.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent,omitempty"`
	Trace  string `json:"trace,omitempty"`
	Name   string `json:"name"`
	// Start and End are microseconds since the process started tracing.
	Start int64 `json:"startUs"`
	End   int64 `json:"endUs"`
	Busy  int64 `json:"busyUs"`
	Count int64 `json:"count,omitempty"`
}

// tracer keeps spans in memory until the benchmark writes them out. A nil
// tracer records nothing, which is how untraced rounds run.
type tracer struct {
	epoch time.Time
	spans []*span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

func (t *tracer) now() int64 { return time.Since(t.epoch).Microseconds() }

// begin opens a span under parent (0 for a root) and returns its id; the
// caller passes the id to end. A nil tracer returns 0.
func (t *tracer) begin(name, trace string, parent int) int {
	if t == nil {
		return 0
	}
	s := &span{ID: len(t.spans) + 1, Parent: parent, Trace: trace, Name: name, Start: t.now()}
	t.spans = append(t.spans, s)
	return s.ID
}

func (t *tracer) end(id int) {
	if t == nil || id == 0 {
		return
	}
	s := t.spans[id-1]
	s.End = t.now()
	s.Busy = s.End - s.Start
}

// aggregate records many calls as one span (see span.Count).
func (t *tracer) aggregate(name, trace string, parent int, start, end time.Time, busy time.Duration, count int64) {
	if t == nil || count == 0 {
		return
	}
	t.spans = append(t.spans, &span{
		ID: len(t.spans) + 1, Parent: parent, Trace: trace, Name: name,
		Start: start.Sub(t.epoch).Microseconds(), End: end.Sub(t.epoch).Microseconds(),
		Busy: busy.Microseconds(), Count: count,
	})
}

// writeJSONL writes one span per line.
func (t *tracer) writeJSONL(w io.Writer) error {
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// spanStat is one row of the span summary.
type spanStat struct {
	Name  string
	Calls int64
	Total time.Duration // summed busy time
	Self  time.Duration // busy time not covered by child spans
}

// summarize totals the spans by name. A span's self time is its busy time
// minus the busy time of its children.
func summarize(spans []*span) []spanStat {
	childBusy := make(map[int]int64)
	for _, s := range spans {
		if s.Parent != 0 {
			childBusy[s.Parent] += s.Busy
		}
	}
	byName := make(map[string]*spanStat)
	for _, s := range spans {
		st := byName[s.Name]
		if st == nil {
			st = &spanStat{Name: s.Name}
			byName[s.Name] = st
		}
		st.Calls += max(s.Count, 1)
		st.Total += time.Duration(s.Busy) * time.Microsecond
		st.Self += time.Duration(max(s.Busy-childBusy[s.ID], 0)) * time.Microsecond
	}
	out := make([]spanStat, 0, len(byName))
	for _, st := range byName {
		out = append(out, *st)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Total != out[j].Total {
			return out[i].Total > out[j].Total
		}
		return out[i].Name < out[j].Name
	})
	return out
}

func writeSpanTable(w io.Writer, rows []spanStat) {
	fmt.Fprintf(w, "%-28s %10s %12s %12s\n", "span", "calls", "total_s", "self_s")
	for _, r := range rows {
		fmt.Fprintf(w, "%-28s %10d %12.4f %12.4f\n", r.Name, r.Calls, r.Total.Seconds(), r.Self.Seconds())
	}
}
