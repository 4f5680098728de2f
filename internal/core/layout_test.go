package core

import (
	"fmt"
	"runtime"
	"sync"
	"testing"

	"github.com/glign/glign/internal/graph"
	"github.com/glign/glign/internal/memtrace"
	"github.com/glign/glign/internal/queries"
)

func TestLayoutGeometry(t *testing.T) {
	const n, b = 100, 8

	vstride, laneOff, total := layoutGeometry(LayoutInterleaved, n, b)
	if vstride != b || total != n*b {
		t.Fatalf("interleaved: vstride=%d total=%d, want %d and %d", vstride, total, b, n*b)
	}
	for i, off := range laneOff {
		if off != i {
			t.Fatalf("interleaved: LaneOff[%d]=%d, want %d", i, off, i)
		}
	}

	vstride, laneOff, total = layoutGeometry(LayoutPadded, n, b)
	stride := laneStrideFor(n)
	if stride%8 != 0 || stride < n {
		t.Fatalf("laneStrideFor(%d)=%d: want a multiple of 8 cells >= n", n, stride)
	}
	if vstride != 1 || total != stride*b {
		t.Fatalf("padded: vstride=%d total=%d, want 1 and %d", vstride, total, stride*b)
	}
	for i, off := range laneOff {
		if off != i*stride {
			t.Fatalf("padded: LaneOff[%d]=%d, want %d", i, off, i*stride)
		}
		// 8 cells x 8 bytes: every lane segment starts on a 64-byte line.
		if off%8 != 0 {
			t.Fatalf("padded: LaneOff[%d]=%d not cache-line aligned", i, off)
		}
	}
	// Lane segments must not overlap: lane i owns [i*stride, i*stride+n).
	for i := 1; i < b; i++ {
		if laneOff[i-1]+n > laneOff[i] {
			t.Fatalf("padded: lanes %d and %d overlap", i-1, i)
		}
	}
}

func TestTracerForcesInterleavedLayout(t *testing.T) {
	g := graph.MustGenerate(graph.LJ, graph.Tiny)
	batch := []queries.Query{{Kernel: queries.BFS, Source: 1}, {Kernel: queries.SSSP, Source: 2}}

	st, err := PrepareBatch(g, batch, Options{Tracer: &memtrace.CountingTracer{}}, LayoutPadded)
	if err != nil {
		t.Fatal(err)
	}
	if st.VStride != st.B {
		t.Fatalf("tracer run resolved vstride %d; the simulated address stream must stay interleaved", st.VStride)
	}

	st, err = PrepareBatch(g, batch, Options{}, LayoutPadded)
	if err != nil {
		t.Fatal(err)
	}
	if st.VStride != 1 {
		t.Fatalf("untraced padded run resolved vstride %d, want 1", st.VStride)
	}
}

// TestEngineLayoutResolution pins each engine's layout on an untraced run:
// Glign-Intra relaxes every lane of a vertex together and takes the
// interleaved layout; Ligra-C's per-lane loops take padded.
func TestEngineLayoutResolution(t *testing.T) {
	g := graph.MustGenerate(graph.LJ, graph.Tiny)
	batch := []queries.Query{{Kernel: queries.BFS, Source: 1}, {Kernel: queries.SSSP, Source: 2}, {Kernel: queries.BFS, Source: 4}}
	res, err := GlignIntra.Run(g, batch, Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if res.VStride != len(batch) {
		t.Fatalf("Glign-Intra resolved vstride %d, want interleaved %d", res.VStride, len(batch))
	}
	for i, off := range res.LaneOff {
		if off != i {
			t.Fatalf("Glign-Intra: LaneOff[%d]=%d, want interleaved %d", i, off, i)
		}
	}
	res, err = LigraC.Run(g, batch, Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if res.VStride != 1 || res.LaneOff[1] != laneStrideFor(g.NumVertices()) {
		t.Fatalf("Ligra-C resolved vstride %d, LaneOff %v; want padded", res.VStride, res.LaneOff)
	}
}

// tracedReference runs e single-threaded under a counting tracer, which
// forces the interleaved layout: the reference the padded runs must match.
func tracedReference(t *testing.T, e Engine, g *graph.Graph, batch []queries.Query) *BatchResult {
	t.Helper()
	ref, err := e.Run(g, batch, Options{Workers: 1, Tracer: &memtrace.CountingTracer{}})
	if err != nil {
		t.Fatal(err)
	}
	if ref.VStride != len(batch) {
		t.Fatalf("%s traced run has vstride %d, want interleaved %d", e.Name(), ref.VStride, len(batch))
	}
	return ref
}

// TestLayoutEquivalenceAcrossEngines pins bitwise-equal results between the
// padded and interleaved layouts for every per-lane monotone engine: its
// default (padded) run at workers 2 and 8 against its traced (interleaved)
// run.
func TestLayoutEquivalenceAcrossEngines(t *testing.T) {
	g := graph.MustGenerate(graph.LJ, graph.Tiny)
	batch := []queries.Query{
		{Kernel: queries.SSSP, Source: 1},
		{Kernel: queries.BFS, Source: 3},
		{Kernel: queries.SSWP, Source: 5},
		{Kernel: queries.SSNP, Source: 7},
	}
	for _, e := range []Engine{LigraC, Krill, LigraS} {
		t.Run(e.Name()+"/monotone", func(t *testing.T) {
			ref := tracedReference(t, e, g, batch)
			for _, w := range []int{2, 8} {
				got, err := e.Run(g, batch, Options{Workers: w})
				if err != nil {
					t.Fatal(err)
				}
				if got.VStride != 1 {
					t.Fatalf("workers %d: default run has vstride %d, want padded", w, got.VStride)
				}
				for qi := range batch {
					rv := ref.QueryValues(qi)
					gv := got.QueryValues(qi)
					for v := range rv {
						if gv[v] != rv[v] {
							t.Fatalf("workers %d, query %d vertex %d: padded %v != interleaved %v", w, qi, v, gv[v], rv[v])
						}
					}
				}
			}
		})
	}
}

// TestPaddedLayoutStress is the race-detector stress for the value layouts:
// an 8-lane batch hammered concurrently by all CAS engines at their default
// layouts (padded Ligra-C and Krill, interleaved Glign-Intra) at workers 2
// and 8, across GOMAXPROCS 1, 2 and 8, every run checked bitwise against the
// engine's serial traced (interleaved) reference. verify.sh runs this
// package under -race.
func TestPaddedLayoutStress(t *testing.T) {
	g := graph.MustGenerate(graph.LJ, graph.Tiny)
	batch := []queries.Query{
		{Kernel: queries.SSSP, Source: 1},
		{Kernel: queries.BFS, Source: 3},
		{Kernel: queries.SSWP, Source: 5},
		{Kernel: queries.SSNP, Source: 7},
		{Kernel: queries.SSSP, Source: 11},
		{Kernel: queries.BFS, Source: 13},
		{Kernel: queries.SSWP, Source: 17},
		{Kernel: queries.BFS, Source: 19},
	}
	if len(batch) != 8 {
		t.Fatal("stress batch must have 8 lanes")
	}

	type stressRun struct {
		e       Engine
		workers int
	}
	want := map[string]*BatchResult{}
	var runs []stressRun
	for _, e := range []Engine{GlignIntra, LigraC, Krill} {
		want[e.Name()] = tracedReference(t, e, g, batch)
		for rep := 0; rep < 2; rep++ {
			runs = append(runs, stressRun{e, 2}, stressRun{e, 8})
		}
	}
	for _, procs := range []int{1, 2, 8} {
		t.Run(fmt.Sprintf("gomaxprocs=%d", procs), func(t *testing.T) {
			prev := runtime.GOMAXPROCS(procs)
			defer runtime.GOMAXPROCS(prev)

			var wg sync.WaitGroup
			for ri, r := range runs {
				wg.Add(1)
				go func(ri int, r stressRun) {
					defer wg.Done()
					res, err := r.e.Run(g, batch, Options{Workers: r.workers})
					if err != nil {
						t.Errorf("%s: %v", r.e.Name(), err)
						return
					}
					ref := want[r.e.Name()]
					for qi := range batch {
						for v := 0; v < g.NumVertices(); v++ {
							got := res.Value(qi, graph.VertexID(v))
							if got != ref.Value(qi, graph.VertexID(v)) {
								t.Errorf("%s run %d (vstride %d, workers %d): query %d vertex %d = %v, want %v",
									r.e.Name(), ri, res.VStride, r.workers, qi, v, got, ref.Value(qi, graph.VertexID(v)))
								return
							}
						}
					}
				}(ri, r)
			}
			wg.Wait()
		})
	}
}
