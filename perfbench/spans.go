package main

import (
	"fmt"
	"time"
)

// span is one timed call. Start and End are nanoseconds since the tracer
// was created; Parent indexes the enclosing span (-1 at the root).
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"`
	Run    string `json:"run"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// tracer records spans in memory; they are written out when the run ends.
// It is used from one goroutine: spans nest strictly, as calls do. A nil
// *tracer records nothing, so untraced code paths share the traced ones.
type tracer struct {
	run   string
	t0    time.Time
	spans []span
	open  []int // stack of open span indices
}

func newTracer(run string) *tracer {
	return &tracer{run: run, t0: time.Now(), spans: make([]span, 0, 1024)}
}

// begin opens a span under the innermost open one and returns its index.
func (t *tracer) begin(name string) int {
	if t == nil {
		return -1
	}
	parent := -1
	if n := len(t.open); n > 0 {
		parent = t.open[n-1]
	}
	t.spans = append(t.spans, span{Name: name, Start: int64(time.Since(t.t0)), Parent: parent, Run: t.run})
	id := len(t.spans) - 1
	t.open = append(t.open, id)
	return id
}

// end closes span id, which must be the innermost open span, and returns
// its duration.
func (t *tracer) end(id int) time.Duration {
	if t == nil {
		return 0
	}
	n := len(t.open)
	if n == 0 || t.open[n-1] != id {
		panic(fmt.Sprintf("perfbench: span %d (%s) closed out of order", id, t.spans[id].Name))
	}
	t.open = t.open[:n-1]
	t.spans[id].End = int64(time.Since(t.t0))
	return t.spans[id].dur()
}

// do runs fn inside a span named name and returns its duration.
func (t *tracer) do(name string, fn func()) time.Duration {
	if t == nil {
		return stopwatch(fn)
	}
	id := t.begin(name)
	fn()
	return t.end(id)
}

// selfTimes derives each span name's total self time in milliseconds: a
// span's duration minus the durations of its direct children.
func selfTimes(spans []span) map[string]float64 {
	child := make([]time.Duration, len(spans))
	for _, s := range spans {
		if s.Parent >= 0 {
			child[s.Parent] += s.dur()
		}
	}
	out := map[string]float64{}
	for i, s := range spans {
		out[s.Name] += float64(s.dur()-child[i]) / 1e6
	}
	return out
}

// checkNesting reports the first span that does not lie inside its
// parent, or that is still open.
func checkNesting(spans []span) error {
	for i, s := range spans {
		if s.End < s.Start {
			return fmt.Errorf("span %d (%s) ends before it starts or is still open", i, s.Name)
		}
		if s.Parent < 0 {
			continue
		}
		if s.Parent >= i {
			return fmt.Errorf("span %d (%s) has parent %d recorded after it", i, s.Name, s.Parent)
		}
		p := spans[s.Parent]
		if s.Start < p.Start || s.End > p.End {
			return fmt.Errorf("span %d (%s) [%d,%d] escapes parent %d (%s) [%d,%d]",
				i, s.Name, s.Start, s.End, s.Parent, p.Name, p.Start, p.End)
		}
	}
	return nil
}

// durations returns the durations of every span named name, in order.
func durations(spans []span, name string) []time.Duration {
	var out []time.Duration
	for _, s := range spans {
		if s.Name == name {
			out = append(out, s.dur())
		}
	}
	return out
}
