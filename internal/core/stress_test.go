package core

import (
	"fmt"
	"runtime"
	"sync"
	"testing"

	"github.com/glign/glign/internal/graph"
	"github.com/glign/glign/internal/queries"
	"github.com/glign/glign/internal/telemetry"
)

// TestConcurrentBatchStress drives several batches through the concurrent
// engines at once — sharing one graph and one telemetry collector — across GOMAXPROCS 1, 2 and 8. Its job is to give the race
// detector (verify.sh runs this package under -race) real interleavings to
// bite on: CAS relaxations, frontier unions, telemetry recording and the
// BatchResult counter protocol all run concurrently here.
func TestConcurrentBatchStress(t *testing.T) {
	g := graph.MustGenerate(graph.LJ, graph.Tiny)
	col := telemetry.NewCollector()

	// Per-engine reference values, computed once up front (sequentially via
	// Ligra-S) so every concurrent run can be checked for correctness too.
	batch := []queries.Query{
		{Kernel: queries.SSSP, Source: 1},
		{Kernel: queries.BFS, Source: 3},
		{Kernel: queries.SSWP, Source: 5},
		{Kernel: queries.SSNP, Source: 7},
	}
	want, err := LigraS.Run(g, batch, Options{})
	if err != nil {
		t.Fatal(err)
	}

	engines := []Engine{LigraC, Krill, GlignIntra}
	for _, procs := range []int{1, 2, 8} {
		t.Run(fmt.Sprintf("gomaxprocs=%d", procs), func(t *testing.T) {
			prev := runtime.GOMAXPROCS(procs)
			defer runtime.GOMAXPROCS(prev)

			run := col.StartRun("stress", "none")
			var wg sync.WaitGroup
			const repeats = 3
			for rep := 0; rep < repeats; rep++ {
				for _, e := range engines {
					wg.Add(1)
					go func(e Engine, rep int) {
						defer wg.Done()
						opt := Options{
							Workers:   2 + rep,
							Telemetry: run.StartBatch(e.Name(), nil, nil),
						}
						res, err := e.Run(g, batch, opt)
						if err != nil {
							t.Errorf("%s: %v", e.Name(), err)
							return
						}
						for qi := range batch {
							for v := 0; v < g.NumVertices(); v++ {
								got := res.Value(qi, graph.VertexID(v))
								if got != want.Value(qi, graph.VertexID(v)) {
									t.Errorf("%s rep %d: query %d vertex %d = %v, want %v",
										e.Name(), rep, qi, v, got, want.Value(qi, graph.VertexID(v)))
									return
								}
							}
						}
					}(e, rep)
				}
			}
			wg.Wait()

			// The shared collector must have absorbed every batch without
			// losing or corrupting counts.
			m := run.Snapshot()
			if len(m.Batches) != repeats*len(engines) {
				t.Errorf("collector saw %d batches, want %d", len(m.Batches), repeats*len(engines))
			}
			for _, b := range m.Batches {
				if len(b.Iterations) == 0 {
					t.Errorf("batch %s recorded no iterations", b.Engine)
				}
				for _, it := range b.Iterations {
					if it.EdgesProcessed < 0 {
						t.Errorf("batch %s has corrupt iteration counter %d", b.Engine, it.EdgesProcessed)
					}
				}
			}
		})
	}
}
