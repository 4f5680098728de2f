package systems

import (
	"math/rand"
	"testing"

	"github.com/glign/glign/internal/align"
	"github.com/glign/glign/internal/engine"
	"github.com/glign/glign/internal/graph"
	"github.com/glign/glign/internal/memtrace"
	"github.com/glign/glign/internal/queries"
	"github.com/glign/glign/internal/sched"
)

func buffer(g *graph.Graph, n int, seed int64) []queries.Query {
	rng := rand.New(rand.NewSource(seed))
	kernels := queries.All()
	buf := make([]queries.Query, n)
	for i := range buf {
		buf[i] = queries.Query{
			Kernel: kernels[rng.Intn(len(kernels))],
			Source: graph.VertexID(rng.Intn(g.NumVertices())),
		}
	}
	return buf
}

// Every method must produce exactly the per-query reference results,
// regardless of batching, alignment, or engine.
func TestAllMethodsCorrect(t *testing.T) {
	g := graph.MustGenerate(graph.LJ, graph.Tiny)
	buf := buffer(g, 40, 41)
	want := make([][]queries.Value, len(buf))
	for i, q := range buf {
		want[i] = engine.ReferenceRun(g, q)
	}
	methods := append(AllMethods(), IBFS, QueryParallel)
	for _, m := range methods {
		res, err := Run(m, g, buf, Config{BatchSize: 8, Workers: 4, KeepValues: true})
		if err != nil {
			t.Fatalf("%s: %v", m, err)
		}
		for i := range buf {
			got := res.Values(i)
			if got == nil {
				t.Fatalf("%s: query %d missing from results", m, i)
			}
			for v := range want[i] {
				if got[v] != want[i][v] {
					t.Fatalf("%s: query %d (%s) v%d = %v, want %v",
						m, i, buf[i], v, got[v], want[i][v])
				}
			}
		}
	}
}

func TestUnknownMethod(t *testing.T) {
	g := graph.PaperExample()
	if _, err := Run("Nope", g, buffer(g, 2, 1), Config{}); err == nil {
		t.Fatal("unknown method accepted")
	}
}

func TestEmptyBuffer(t *testing.T) {
	g := graph.PaperExample()
	if _, err := Run(GlignIntra, g, nil, Config{}); err == nil {
		t.Fatal("empty buffer accepted")
	}
}

func TestGlignInterRecordsAlignments(t *testing.T) {
	g := graph.MustGenerate(graph.TW, graph.Tiny)
	buf := buffer(g, 16, 42)
	res, err := Run(GlignInter, g, buf, Config{BatchSize: 8, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Alignments) != len(res.Batches) {
		t.Fatal("alignment bookkeeping broken")
	}
	for bi, I := range res.Alignments {
		if I == nil {
			t.Fatalf("batch %d: Glign-Inter must record an alignment vector", bi)
		}
		minV := I[0]
		for _, x := range I {
			if x < 0 {
				t.Fatalf("negative alignment %v", I)
			}
			if x < minV {
				minV = x
			}
		}
		if minV != 0 {
			t.Fatalf("alignment %v not normalized", I)
		}
	}
	// Intra must not align.
	res, err = Run(GlignIntra, g, buf, Config{BatchSize: 8, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	for _, I := range res.Alignments {
		if I != nil {
			t.Fatal("Glign-Intra must not use alignment vectors")
		}
	}
}

func TestProfileReuse(t *testing.T) {
	g := graph.MustGenerate(graph.LJ, graph.Tiny)
	prof := align.NewProfile(g, 4, 2)
	buf := buffer(g, 8, 43)
	// Passing a prebuilt profile must work and not rebuild it (cannot
	// observe directly; at least exercise the path).
	if _, err := Run(Glign, g, buf, Config{BatchSize: 4, Profile: prof, Workers: 2}); err != nil {
		t.Fatal(err)
	}
}

func TestNeedsProfile(t *testing.T) {
	for _, m := range []string{GlignInter, GlignBatch, Glign} {
		if !NeedsProfile(m) {
			t.Fatalf("%s should need a profile", m)
		}
	}
	for _, m := range []string{LigraS, LigraC, Krill, GraphM, GlignIntra, IBFS} {
		if NeedsProfile(m) {
			t.Fatalf("%s should not need a profile", m)
		}
	}
}

func TestTracerThreadedThrough(t *testing.T) {
	g := graph.MustGenerate(graph.LJ, graph.Tiny)
	buf := buffer(g, 8, 44)
	var ct memtrace.CountingTracer
	if _, err := Run(GlignIntra, g, buf, Config{BatchSize: 4, Tracer: &ct}); err != nil {
		t.Fatal(err)
	}
	if ct.Reads == 0 {
		t.Fatal("tracer unused")
	}
}

func TestStatsAggregation(t *testing.T) {
	g := graph.MustGenerate(graph.LJ, graph.Tiny)
	buf := buffer(g, 12, 45)
	res, err := Run(GlignIntra, g, buf, Config{BatchSize: 4, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Batches) != 3 {
		t.Fatalf("batches = %d, want 3", len(res.Batches))
	}
	if res.TotalIterations == 0 || res.EdgesProcessed == 0 || res.Duration <= 0 {
		t.Fatalf("stats not aggregated: %+v", res)
	}
	// Oblivious evaluation relaxes at least one lane per edge visit.
	if res.LaneRelaxations < res.EdgesProcessed {
		t.Fatalf("lane relaxations %d < edges %d", res.LaneRelaxations, res.EdgesProcessed)
	}
}

// TestResultValuesInPlace pins the in-place result lookup: for every query
// of every batch, Result.Value and Result.Values read exactly the kept
// batch's QueryValues for the query's lane — on a buffer whose last batch is
// partial, on a mixed buffer whose Jacobi batch (padded) sits beside a
// monotone one (interleaved under Glign-Intra), and for every method.
func TestResultValuesInPlace(t *testing.T) {
	g := graph.MustGenerate(graph.LJ, graph.Tiny)
	pr, err := queries.ByName("PageRank")
	if err != nil {
		t.Fatal(err)
	}
	mixed := []queries.Query{
		{Kernel: pr, Source: 0}, {Kernel: queries.BFS, Source: 3},
		{Kernel: pr, Source: 5}, {Kernel: queries.BFS, Source: 9},
		{Kernel: queries.SSSP, Source: 11},
	}
	// Each case may check the kept batches further.
	partial := func(t *testing.T, buf []queries.Query, res *Result) {
		if last := res.kept[len(res.kept)-1]; last.B != len(buf)%64 {
			t.Fatalf("last batch has %d lanes, want a partial batch of %d", last.B, len(buf)%64)
		}
	}
	layouts := func(t *testing.T, buf []queries.Query, res *Result) {
		for bi, idx := range res.Batches {
			br := res.kept[bi]
			if padded := br.VStride == 1; padded != queries.AnyConvergent(sched.Select(buf, idx)) {
				t.Fatalf("batch %d: vstride %d; want padded exactly for the Jacobi batch", bi, br.VStride)
			}
		}
	}
	cases := []struct {
		name    string
		methods []string
		buf     []queries.Query
		batch   int
		check   func(*testing.T, []queries.Query, *Result)
	}{
		{"partial", []string{GlignIntra}, buffer(g, 70, 7), 64, partial},
		{"mixed", []string{GlignIntra}, mixed, 8, layouts},
		{"methods", AllMethods(), buffer(g, 20, 43), 8, nil},
	}
	for _, c := range cases {
		for _, m := range c.methods {
			t.Run(c.name+"/"+m, func(t *testing.T) {
				res, err := Run(m, g, c.buf, Config{BatchSize: c.batch, Workers: 2, KeepValues: true})
				if err != nil {
					t.Fatal(err)
				}
				if len(res.kept) != len(res.Batches) {
					t.Fatalf("kept %d batch results for %d batches", len(res.kept), len(res.Batches))
				}
				for bi, idx := range res.Batches {
					br := res.kept[bi]
					for qi, bufferIdx := range idx {
						want := br.QueryValues(qi)
						got := res.Values(bufferIdx)
						for v := range want {
							if got[v] != want[v] || res.Value(bufferIdx, graph.VertexID(v)) != want[v] {
								t.Fatalf("batch %d lane %d (buffer %d) v%d: Values %v, Value %v, want %v",
									bi, qi, bufferIdx, v, got[v], res.Value(bufferIdx, graph.VertexID(v)), want[v])
							}
						}
					}
				}
				if c.check != nil {
					c.check(t, c.buf, res)
				}
			})
		}
	}
}
