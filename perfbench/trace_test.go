package main

import (
	"testing"
	"time"
)

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "parent", Start: 0, End: 100},
		// Two overlapping children cover [10, 50].
		{ID: 2, Parent: 1, Name: "a", Start: 10, End: 30},
		{ID: 3, Parent: 1, Name: "b", Start: 20, End: 50},
		{ID: 4, Parent: 1, Name: "c", Start: 60, End: 70},
		// A child running past its parent counts only inside it.
		{ID: 5, Parent: 1, Name: "d", Start: 90, End: 120},
		// A grandchild reduces its own parent's self time only.
		{ID: 6, Parent: 3, Name: "e", Start: 25, End: 35},
	}
	self := selfTimes(spans)
	for id, want := range map[uint64]time.Duration{1: 40, 2: 20, 3: 20, 4: 10, 5: 30, 6: 10} {
		if self[id] != want {
			t.Errorf("self time of span %d = %d, want %d", id, self[id], want)
		}
	}
}

func TestTracerNilRecordsNothing(t *testing.T) {
	var tr *tracer
	id, start := tr.begin()
	tr.end(id, 0, "x", start)
	if got := tr.take(); got != nil {
		t.Fatalf("a nil tracer returned spans %v", got)
	}
	tr = newTracer()
	id, start = tr.begin()
	tr.end(id, 7, "x", start)
	got := tr.take()
	if len(got) != 1 || got[0].Parent != 7 || got[0].End < got[0].Start || tr.take() != nil {
		t.Fatalf("tracer spans = %+v", got)
	}
}
