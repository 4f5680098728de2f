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

	st, err := PrepareBatch(g, batch, Options{Tracer: &memtrace.CountingTracer{}})
	if err != nil {
		t.Fatal(err)
	}
	if st.Layout != LayoutInterleaved || st.VStride != st.B {
		t.Fatalf("tracer run resolved layout %v (vstride %d); the simulated address stream must stay interleaved",
			st.Layout, st.VStride)
	}

	st, err = PrepareBatch(g, batch, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if st.Layout != LayoutPadded || st.VStride != 1 {
		t.Fatalf("untraced run resolved layout %v (vstride %d), want padded", st.Layout, st.VStride)
	}
}

// TestEngineLayoutResolution pins which layout LayoutAuto means per engine
// on an untraced run: Glign-Intra (push and pull alike) relaxes every lane of
// a vertex together and takes the interleaved layout; Ligra-C's per-lane
// loops take padded.
func TestEngineLayoutResolution(t *testing.T) {
	g := graph.MustGenerate(graph.LJ, graph.Tiny)
	batch := []queries.Query{{Kernel: queries.BFS, Source: 1}, {Kernel: queries.SSSP, Source: 2}, {Kernel: queries.BFS, Source: 4}}
	for _, opt := range []Options{{Workers: 2}, {Workers: 2, ReverseGraph: g.Reverse()}} {
		res, err := GlignIntra.Run(g, batch, opt)
		if err != nil {
			t.Fatal(err)
		}
		if res.VStride != len(batch) {
			t.Fatalf("Glign-Intra (pull graph %v) resolved vstride %d, want interleaved %d",
				opt.ReverseGraph != nil, res.VStride, len(batch))
		}
		for i, off := range res.LaneOff {
			if off != i {
				t.Fatalf("Glign-Intra: LaneOff[%d]=%d, want interleaved %d", i, off, i)
			}
		}
	}
	res, err := LigraC.Run(g, batch, Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if res.VStride != 1 || res.LaneOff[1] != laneStrideFor(g.NumVertices()) {
		t.Fatalf("Ligra-C resolved vstride %d, LaneOff %v; want padded", res.VStride, res.LaneOff)
	}
}

// TestLayoutEquivalenceAcrossEngines pins bitwise-equal results between the
// padded and interleaved layouts for every concurrent engine, on monotone and
// iterate-to-convergence batches.
func TestLayoutEquivalenceAcrossEngines(t *testing.T) {
	g := graph.MustGenerate(graph.LJ, graph.Tiny)
	monotone := []queries.Query{
		{Kernel: queries.SSSP, Source: 1},
		{Kernel: queries.BFS, Source: 3},
		{Kernel: queries.SSWP, Source: 5},
		{Kernel: queries.SSNP, Source: 7},
	}
	pr, err := queries.ByName("PageRank")
	if err != nil {
		t.Fatal(err)
	}
	convergent := []queries.Query{
		{Kernel: pr, Source: 0},
		{Kernel: pr, Source: 2},
	}

	for _, e := range []Engine{GlignIntra, LigraC, Krill, LigraS} {
		for name, batch := range map[string][]queries.Query{"monotone": monotone, "convergence": convergent} {
			t.Run(fmt.Sprintf("%s/%s", e.Name(), name), func(t *testing.T) {
				ref, err := e.Run(g, batch, Options{Workers: 1, Layout: LayoutInterleaved})
				if err != nil {
					t.Fatal(err)
				}
				got, err := e.Run(g, batch, Options{Workers: 2, Layout: LayoutPadded})
				if err != nil {
					t.Fatal(err)
				}
				for qi := range batch {
					rv := ref.QueryValues(qi)
					gv := got.QueryValues(qi)
					for v := range rv {
						if gv[v] != rv[v] {
							t.Fatalf("query %d vertex %d: padded %v != interleaved %v", qi, v, gv[v], rv[v])
						}
					}
				}
			})
		}
	}
}

// TestPaddedLayoutStress is the race-detector stress for the padded per-lane
// layout: an 8-lane batch hammered concurrently by all CAS engines across
// GOMAXPROCS 1, 2 and 8, every run checked bitwise against the serial
// interleaved reference. Glign-Intra also runs with its default
// (interleaved) layout at workers 2 and 8, push-only and with pull
// iterations. verify.sh runs this package under -race.
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
	want, err := GlignIntra.Run(g, batch, Options{Workers: 1, Layout: LayoutInterleaved})
	if err != nil {
		t.Fatal(err)
	}

	type stressRun struct {
		e   Engine
		opt Options
	}
	var runs []stressRun
	for rep := 0; rep < 3; rep++ {
		for _, e := range []Engine{GlignIntra, LigraC, Krill} {
			runs = append(runs, stressRun{e, Options{Workers: 2 + rep, Layout: LayoutPadded}})
		}
	}
	rev := g.Reverse()
	for _, w := range []int{2, 8} {
		runs = append(runs, stressRun{GlignIntra, Options{Workers: w}},
			stressRun{GlignIntra, Options{Workers: w, ReverseGraph: rev}})
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
					res, err := r.e.Run(g, batch, r.opt)
					if err != nil {
						t.Errorf("%s: %v", r.e.Name(), err)
						return
					}
					for qi := range batch {
						for v := 0; v < g.NumVertices(); v++ {
							got := res.Value(qi, graph.VertexID(v))
							if got != want.Value(qi, graph.VertexID(v)) {
								t.Errorf("%s run %d (%s, workers %d): query %d vertex %d = %v, want %v",
									r.e.Name(), ri, r.opt.Layout, r.opt.Workers, qi, v, got, want.Value(qi, graph.VertexID(v)))
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
