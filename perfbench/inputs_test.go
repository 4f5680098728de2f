package main

import (
	"reflect"
	"testing"
	"time"

	"github.com/glign/glign"
	"github.com/glign/glign/internal/systems"
)

func tinyRuntime(t *testing.T, dataset string) (*glign.Graph, *glign.Runtime) {
	t.Helper()
	g, err := glign.Generate(dataset, "tiny")
	if err != nil {
		t.Fatal(err)
	}
	rt, err := glign.NewRuntime(g, glign.WithWorkers(2))
	if err != nil {
		t.Fatal(err)
	}
	return g, rt
}

func TestInputsAreAFunctionOfTheSeed(t *testing.T) {
	for _, w := range workloads {
		g, rt := tinyRuntime(t, w.batch.dataset)
		b := w.batch
		b.queries = 64
		a1, a2 := batchBuffer(b, g, rt.Profile(), 7), batchBuffer(b, g, rt.Profile(), 7)
		if !reflect.DeepEqual(a1, a2) {
			t.Fatalf("%s: same seed gave different buffers", w.name)
		}
		if reflect.DeepEqual(a1, batchBuffer(b, g, rt.Profile(), 8)) {
			t.Fatalf("%s: seeds 7 and 8 gave the same buffer", w.name)
		}
		s1, s2 := serveSchedule(w.serve, g, rt.Profile(), serveRate, 200, 7), serveSchedule(w.serve, g, rt.Profile(), serveRate, 200, 7)
		if !reflect.DeepEqual(s1, s2) {
			t.Fatalf("%s: same seed gave different schedules", w.name)
		}
		if reflect.DeepEqual(s1, serveSchedule(w.serve, g, rt.Profile(), serveRate, 200, 8)) {
			t.Fatalf("%s: seeds 7 and 8 gave the same schedule", w.name)
		}
		// A longer schedule extends a shorter one: the arrival stream does
		// not depend on the run length.
		if !reflect.DeepEqual(s1[:100], serveSchedule(w.serve, g, rt.Profile(), serveRate, 100, 7)) {
			t.Fatalf("%s: schedule prefix depends on its length", w.name)
		}
		for i := 1; i < len(s1); i++ {
			if s1[i].at <= s1[i-1].at {
				t.Fatalf("%s: arrival %d not after %d", w.name, i, i-1)
			}
		}
	}
}

func TestMixesDrawEveryKernel(t *testing.T) {
	g, rt := tinyRuntime(t, "LJ")
	for _, m := range []mix{heterMix, roadMix} {
		seen := map[string]bool{}
		for _, q := range batchBuffer(batchSpec{queries: 256, mix: m}, g, rt.Profile(), 1) {
			seen[q.Kernel.Name()] = true
		}
		want := map[mix]int{heterMix: 4, roadMix: 2}[m]
		if len(seen) != want {
			t.Fatalf("mix %s drew kernels %v, want %d distinct", m, seen, want)
		}
	}
}

// The traced harness must evaluate exactly the generated buffer and agree
// with Runtime.Run bit for bit.
func TestTracedRunEqualsRuntimeRun(t *testing.T) {
	g, rt := tinyRuntime(t, "LJ")
	buffer := batchBuffer(batchSpec{queries: 96, mix: heterMix}, g, rt.Profile(), 3)
	ref, err := rt.Run(buffer)
	if err != nil {
		t.Fatal(err)
	}
	tr := newTracer()
	values, cnt, err := tracedRun(tr, glign.MethodGlign, g, rt.Profile(), buffer, systems.Config{BatchSize: 64, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	for i := range buffer {
		if d := firstDiff(ref.Values(i), values[i]); d >= 0 {
			t.Fatalf("query %d differs at vertex %d", i, d)
		}
	}
	if cnt.batches != 2 || len(tr.spans) == 0 || tr.spans[0].Name != "systems.run" {
		t.Fatalf("batches %d, spans %d", cnt.batches, len(tr.spans))
	}
	for i, s := range tr.spans[1:] {
		if s.Parent != 0 || s.End < s.Start {
			t.Fatalf("span %d (%s) parent %d, [%v, %v]", i+1, s.Name, s.Parent, s.Start, s.End)
		}
	}
}

// The server must receive only generated queries, and the recording
// decorator must pass its results through unchanged.
func TestServeReceivesOnlyTheSchedule(t *testing.T) {
	g, rt := tinyRuntime(t, "LJ")
	schedule := serveSchedule(workloads[0].serve, g, rt.Profile(), 1000, 60, 5)
	inner, err := servePlanEngine(g, rt.Profile(), 2, nil)
	if err != nil {
		t.Fatal(err)
	}
	rec := &recordingEngine{inner: inner}
	r, err := runServe(g, rt.Profile(), 2, nil, schedule, 20*time.Millisecond, rec)
	if err != nil {
		t.Fatal(err)
	}
	sent := map[string]bool{}
	for _, a := range schedule {
		sent[a.q.String()] = true
	}
	for _, b := range rec.batches() {
		for _, q := range b.queries {
			if !sent[q.String()] {
				t.Fatalf("server evaluated %s, which was never sent", q)
			}
		}
	}
	res := summarize(r, newGolden(g), schedule)
	if res.failed != 0 || res.answered != len(schedule) || len(res.mismatches) != 0 {
		t.Fatalf("answered %d of %d, failed %d", res.answered, len(schedule), res.failed)
	}
	if rec.Name() != inner.Name() {
		t.Fatalf("decorator renamed the engine: %q", rec.Name())
	}
}

func TestBalancedMixHoldsEveryKernelEquallyOften(t *testing.T) {
	g, rt := tinyRuntime(t, "RD-CA")
	buf := batchBuffer(batchSpec{queries: 128, mix: roadMix}, g, rt.Profile(), 9)
	count := map[string]int{}
	for _, q := range buf {
		count[q.Kernel.Name()]++
	}
	if count["SSSP"] != 64 || count["KHOP3"] != 64 {
		t.Fatalf("road buffer kernels %v, want 64 SSSP and 64 KHOP3", count)
	}
}
