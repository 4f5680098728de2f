package main

import (
	"testing"
	"time"
)

func TestSelfTimeSubtractsChildUnion(t *testing.T) {
	ms := time.Millisecond
	spans := []span{
		{Name: "root", Start: 0, End: 100 * ms, Parent: -1},
		{Name: "a", Start: 10 * ms, End: 30 * ms, Parent: 0},
		{Name: "b", Start: 20 * ms, End: 40 * ms, Parent: 0},  // overlaps a: union 10..40
		{Name: "c", Start: 60 * ms, End: 70 * ms, Parent: 0},  // disjoint
		{Name: "d", Start: 90 * ms, End: 120 * ms, Parent: 0}, // clipped to 90..100
		{Name: "aa", Start: 12 * ms, End: 28 * ms, Parent: 1}, // grandchild: not the root's
		{Name: "x", Start: 0, End: 100 * ms, Parent: -1},      // another root
		{Name: "y", Start: 45 * ms, End: 55 * ms, Parent: 6},  // child of the other root
	}
	// root: 100 - (30 covered by a∪b + 10 by c + 10 by d) = 50.
	if got := selfTime(spans, 0); got != 50*ms {
		t.Fatalf("root self time = %v, want 50ms", got)
	}
	// a: 20 - 16 covered by aa.
	if got := selfTime(spans, 1); got != 4*ms {
		t.Fatalf("a self time = %v, want 4ms", got)
	}
	// A leaf's self time is its duration.
	if got := selfTime(spans, 3); got != 10*ms {
		t.Fatalf("leaf self time = %v, want 10ms", got)
	}
}

func TestTracerTotalsByName(t *testing.T) {
	tr := newTracer()
	root := tr.begin("systems.run", -1, -1)
	for bi := 0; bi < 3; bi++ {
		tr.add("core.engine", tr.origin.Add(time.Duration(bi)*time.Second),
			tr.origin.Add(time.Duration(bi)*time.Second+time.Millisecond), root, bi)
	}
	tr.end(root)
	if got := tr.total("core.engine"); got != 3*time.Millisecond {
		t.Fatalf("total = %v, want 3ms", got)
	}
}
