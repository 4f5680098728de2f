package frontier

import (
	"math/rand"
	"slices"
	"testing"

	"github.com/glign/glign/internal/graph"
	"github.com/glign/glign/internal/par"
)

// TestCountMatchesSparseAfterEveryMutation walks a subset through every
// mutator and checks Count, IsEmpty and both Sparse walks agree after each.
func TestCountMatchesSparseAfterEveryMutation(t *testing.T) {
	const n = 1000
	check := func(step string, s *Subset) {
		t.Helper()
		c := s.Count()
		if m := len(s.Sparse(nil, 1)); c != m {
			t.Fatalf("%s: Count %d, Sparse %d members", step, c, m)
		}
		if s.IsEmpty() != (c == 0) {
			t.Fatalf("%s: IsEmpty %v with Count %d", step, s.IsEmpty(), c)
		}
	}
	rng := rand.New(rand.NewSource(3))
	random := func(k int) *Subset {
		s := New(n)
		for i := 0; i < k; i++ {
			s.Add(graph.VertexID(rng.Intn(n)))
		}
		return s
	}
	s := New(n)
	check("New", s)
	for _, v := range []graph.VertexID{0, 63, 64, 500, 999, 500} {
		s.Add(v)
	}
	check("Add", s)
	c := s.Clone()
	check("Clone", c)
	s.Clear()
	check("Clear", s)
	check("Clone after the original's Clear", c)
	c.UnionWith(random(300))
	check("UnionWith", c)
	s.UnionOf(nil, 2, c, random(200), random(50))
	check("UnionOf", s)
	s.UnionOf(nil, 1, New(n))
	check("UnionOf of an empty part", s)
}

// TestSparseUsesCallersPool pins Sparse's parallel path to the pool and
// worker bound it is given: a large frontier materialized on an injected
// pool is attributed to that pool and never to par.Default, and workers ==
// 1 walks serially without touching any pool.
func TestSparseUsesCallersPool(t *testing.T) {
	build := func(n int) *Subset {
		rng := rand.New(rand.NewSource(11))
		s := New(n)
		for members := 0; members < 5000; {
			if s.Add(graph.VertexID(rng.Intn(n))) {
				members++
			}
		}
		return s
	}
	serialOf := func(s *Subset) []graph.VertexID {
		return append([]graph.VertexID(nil), s.Clone().Sparse(nil, 1)...)
	}
	pool := par.NewPool(2)
	defer pool.Close()
	def := par.Default()

	// 2^18 vertices: the block walk is a single sub-grain loop, which the
	// injected pool runs inline.
	s := build(1 << 18)
	want := serialOf(s)
	p0, d0 := pool.Stats(), def.Stats()
	if got := s.Sparse(pool, 2); !slices.Equal(got, want) {
		t.Fatal("pooled Sparse differs from the serial walk")
	}
	p1, d1 := pool.Stats(), def.Stats()
	if p1.Jobs+p1.InlineRuns <= p0.Jobs+p0.InlineRuns {
		t.Fatal("Sparse(pool, 2) did not run on the injected pool")
	}
	if d1.Jobs != d0.Jobs || d1.InlineRuns != d0.InlineRuns {
		t.Fatal("Sparse(pool, 2) ran on par.Default")
	}

	// 2^21 vertices: enough bitmap blocks that the walk dispatches a job.
	s = build(1 << 21)
	want = serialOf(s)
	p0, d0 = pool.Stats(), def.Stats()
	if got := s.Sparse(pool, 2); !slices.Equal(got, want) {
		t.Fatal("pooled Sparse differs from the serial walk")
	}
	p1, d1 = pool.Stats(), def.Stats()
	if p1.Jobs <= p0.Jobs {
		t.Fatal("Sparse(pool, 2) dispatched no job on the injected pool")
	}
	if d1.Jobs != d0.Jobs || d1.InlineRuns != d0.InlineRuns {
		t.Fatal("Sparse(pool, 2) ran on par.Default")
	}

	// workers == 1: a serial walk that no pool sees.
	s = build(1 << 18)
	want = serialOf(s)
	p0, d0 = pool.Stats(), def.Stats()
	if got := s.Sparse(pool, 1); !slices.Equal(got, want) {
		t.Fatal("serial Sparse differs from the serial walk")
	}
	p1, d1 = pool.Stats(), def.Stats()
	if p1.Jobs != p0.Jobs || p1.InlineRuns != p0.InlineRuns ||
		d1.Jobs != d0.Jobs || d1.InlineRuns != d0.InlineRuns {
		t.Fatal("Sparse(pool, 1) used a pool")
	}
}
