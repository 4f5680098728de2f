package core

import (
	"strings"
	"sync"
	"testing"

	"github.com/glign/glign/internal/graph"
	"github.com/glign/glign/internal/oracle"
	"github.com/glign/glign/internal/queries"
)

var (
	convGraphOnce sync.Once
	convLJ        *graph.Graph
	convRoad      *graph.Graph
)

func convGraphs(t *testing.T) (*graph.Graph, *graph.Graph) {
	t.Helper()
	convGraphOnce.Do(func() {
		convLJ = graph.MustGenerate(graph.LJ, graph.Tiny)
		convRoad = graph.MustGenerate(graph.RDCA, graph.Tiny)
	})
	return convLJ, convRoad
}

func convBatch() []queries.Query {
	return []queries.Query{
		{Kernel: queries.PageRank, Source: 0},
		{Kernel: queries.LabelProp, Source: 3},
		{Kernel: queries.PageRank, Source: 7},
		{Kernel: queries.LabelProp, Source: 11},
	}
}

// TestConvergenceBatchedMatchesSequential is the convergence-paradigm
// differential: the lane-fused batched Jacobi evaluator (routed through
// every batch engine) must produce bit-identical floats to the sequential
// per-query evaluator and to the serial oracle golden, at every worker
// count — the determinism the max-residual criterion and the in-neighbor
// order contract exist to provide.
func TestConvergenceBatchedMatchesSequential(t *testing.T) {
	lj, road := convGraphs(t)
	engines := []Engine{GlignIntra, Krill, LigraC, LigraS}
	for _, g := range []*graph.Graph{lj, road} {
		batch := convBatch()
		// The oracle golden is the paradigm's independent truth.
		want := make([][]queries.Value, len(batch))
		for i, q := range batch {
			want[i] = oracle.GoldenValues(g, q)
		}
		for _, eng := range engines {
			for _, workers := range []int{1, 4} {
				br, err := eng.Run(g, batch, Options{Workers: workers})
				if err != nil {
					t.Fatalf("%s on %s (workers=%d): %v", eng.Name(), g.Name, workers, err)
				}
				for i := range batch {
					got := br.QueryValues(i)
					for v := range got {
						if got[v] != want[i][v] {
							t.Fatalf("%s on %s (workers=%d) query %s: vals[v%d] = %v, golden %v",
								eng.Name(), g.Name, workers, batch[i], v, got[v], want[i][v])
						}
					}
					if vio := oracle.CheckResult(g, batch[i], got); len(vio) != 0 {
						t.Fatalf("%s on %s query %s violates invariants: %+v", eng.Name(), g.Name, batch[i], vio)
					}
				}
				if br.LaneRounds == nil || br.LaneConverged == nil || br.LaneResiduals == nil {
					t.Fatalf("%s on %s: convergence lane metadata missing", eng.Name(), g.Name)
				}
				for i := range batch {
					if !br.LaneConverged[i] {
						t.Fatalf("%s on %s lane %d (%s) did not converge in %d rounds (residual %g)",
							eng.Name(), g.Name, i, batch[i], br.LaneRounds[i], br.LaneResiduals[i])
					}
					if br.LaneRounds[i] <= 0 {
						t.Fatalf("%s on %s lane %d: zero rounds recorded", eng.Name(), g.Name, i)
					}
				}
			}
		}
	}
}

// TestConvergenceAlignmentIgnored pins that delayed-start vectors do not
// perturb convergence batches: the Jacobi evaluator has no frontier to
// delay, so aligned and unaligned runs are identical.
func TestConvergenceAlignmentIgnored(t *testing.T) {
	_, road := convGraphs(t)
	batch := convBatch()
	plain, err := GlignIntra.Run(road, batch, Options{Workers: 2})
	if err != nil {
		t.Fatalf("unaligned: %v", err)
	}
	aligned, err := GlignIntra.Run(road, batch, Options{Workers: 2, Alignment: []int{0, 2, 4, 6}})
	if err != nil {
		t.Fatalf("aligned: %v", err)
	}
	for i := range batch {
		p, a := plain.QueryValues(i), aligned.QueryValues(i)
		for v := range p {
			if p[v] != a[v] {
				t.Fatalf("alignment changed convergence values at query %d vertex %d", i, v)
			}
		}
	}
}

// TestConvergenceMaxIterationsCaps pins the test-only round cap.
func TestConvergenceMaxIterationsCaps(t *testing.T) {
	lj, _ := convGraphs(t)
	br, err := GlignIntra.Run(lj, convBatch(), Options{Workers: 2, MaxIterations: 2})
	if err != nil {
		t.Fatalf("capped run: %v", err)
	}
	if br.GlobalIterations != 2 {
		t.Fatalf("GlobalIterations = %d, want 2", br.GlobalIterations)
	}
	for i, r := range br.LaneRounds {
		if r != 2 {
			t.Fatalf("lane %d ran %d rounds under a 2-round cap", i, r)
		}
		if br.LaneConverged[i] {
			t.Fatalf("lane %d claims convergence after 2 rounds", i)
		}
	}
}

// TestMixedParadigmBatchRejected pins the homogeneity contract: engines
// refuse batches mixing monotone and convergence kernels (the batching
// layers split them via sched.SplitParadigm before dispatch).
func TestMixedParadigmBatchRejected(t *testing.T) {
	_, road := convGraphs(t)
	mixed := []queries.Query{
		{Kernel: queries.BFS, Source: 0},
		{Kernel: queries.PageRank, Source: 1},
	}
	for _, eng := range []Engine{GlignIntra, Krill, LigraC, LigraS} {
		if _, err := eng.Run(road, mixed, Options{Workers: 1}); err == nil {
			t.Fatalf("%s accepted a mixed-paradigm batch", eng.Name())
		} else if !strings.Contains(err.Error(), "paradigm") {
			t.Fatalf("%s: error does not name the paradigm split: %v", eng.Name(), err)
		}
	}
}

// TestPrepareBatchRejectsConvergenceKernels pins the guard protecting
// engines without a Jacobi path (GraphM, Congra).
func TestPrepareBatchRejectsConvergenceKernels(t *testing.T) {
	_, road := convGraphs(t)
	_, err := PrepareBatch(road, []queries.Query{{Kernel: queries.LabelProp, Source: 0}}, Options{}, LayoutPadded)
	if err == nil || !strings.Contains(err.Error(), "iterate-to-convergence") {
		t.Fatalf("PrepareBatch accepted a convergence kernel (err = %v)", err)
	}
}
