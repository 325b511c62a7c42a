package main

import (
	"math"
	"testing"
	"time"
)

func TestSpansNestInsideTheirParents(t *testing.T) {
	tr := newTracer("test")
	tr.do("outer", func() {
		tr.do("a", func() { time.Sleep(2 * time.Millisecond) })
		tr.do("b", func() {
			tr.do("c", func() { time.Sleep(time.Millisecond) })
		})
	})
	tr.do("second-root", func() {})
	if err := checkNesting(tr.spans); err != nil {
		t.Fatal(err)
	}
	want := map[string]int{"outer": -1, "a": 0, "b": 0, "c": 2, "second-root": -1}
	for _, s := range tr.spans {
		if got := s.Parent; got != want[s.Name] {
			t.Errorf("span %s: parent %d, want %d", s.Name, got, want[s.Name])
		}
		if s.Run != "test" {
			t.Errorf("span %s: run id %q", s.Name, s.Run)
		}
	}
	// Self times partition the root span's duration.
	self := selfTimes(tr.spans)
	var sum float64
	for _, name := range []string{"outer", "a", "b", "c"} {
		if self[name] < 0 {
			t.Errorf("span %s: negative self time %v", name, self[name])
		}
		sum += self[name]
	}
	if root := ms(tr.spans[0].dur()); math.Abs(sum-root) > 1e-9 {
		t.Errorf("self times sum to %v ms, root span lasts %v ms", sum, root)
	}
	if self["a"] < 2 {
		t.Errorf("span a self time %v ms, slept 2 ms", self["a"])
	}
}

func TestNestingCheckRejectsEscapingSpan(t *testing.T) {
	spans := []span{
		{Name: "parent", Start: 10, End: 20, Parent: -1},
		{Name: "child", Start: 12, End: 25, Parent: 0},
	}
	if checkNesting(spans) == nil {
		t.Error("a child ending after its parent passed")
	}
	spans[1] = span{Name: "child", Start: 5, End: 15, Parent: 0}
	if checkNesting(spans) == nil {
		t.Error("a child starting before its parent passed")
	}
	spans[1] = span{Name: "open", Start: 12, End: 0, Parent: 0}
	if checkNesting(spans) == nil {
		t.Error("a span never closed passed")
	}
}

func TestTracerRejectsOutOfOrderEnd(t *testing.T) {
	tr := newTracer("test")
	a := tr.begin("a")
	tr.begin("b")
	defer func() {
		if recover() == nil {
			t.Error("closing the outer span first did not panic")
		}
	}()
	tr.end(a)
}

func TestNilTracerRecordsNothing(t *testing.T) {
	var tr *tracer
	ran := false
	tr.do("x", func() { ran = true })
	if !ran {
		t.Error("nil tracer did not run the call")
	}
	tr.end(tr.begin("y"))
}
