package core

import (
	"sync/atomic"

	"github.com/glign/glign/internal/engine"
	"github.com/glign/glign/internal/graph"
	"github.com/glign/glign/internal/queries"
)

// ligraS evaluates the queries of a batch one after another with the
// single-query Ligra engine — the paper's "Ligra-S" baseline (Table 5).
// Each query still runs with full vertex-level parallelism; there is simply
// no graph-access sharing across queries.
type ligraS struct{}

// LigraS is the sequential baseline engine.
var LigraS Engine = ligraS{}

func (ligraS) Name() string { return "Ligra-S" }

func (ligraS) Run(g *graph.Graph, batch []queries.Query, opt Options) (*BatchResult, error) {
	// Convergence kernels keep the sequential shape: one independent Jacobi
	// evaluation per query, no sharing across queries.
	if queries.AnyConvergent(batch) {
		return RunConvergenceSequential(g, batch, opt)
	}
	st, err := PrepareBatch(g, batch, opt, LayoutPadded)
	if err != nil {
		return nil, err
	}
	res := st.NewResult()
	for i, q := range batch {
		r := engine.Run(g, q, engine.Options{
			Workers:       opt.Workers,
			Pool:          opt.Pool,
			MaxIterations: opt.MaxIterations,
			Tracer:        opt.Tracer,
			Telemetry:     opt.Telemetry,
			TelemetryLane: i,
		})
		for v := 0; v < st.N; v++ {
			st.Vals.Set(st.Cell(v, i), r.Values[v])
		}
		if r.Iterations > res.GlobalIterations {
			res.GlobalIterations = r.Iterations
		}
		// Atomic adds and loads keep the counters' access protocol uniform
		// with the concurrent engines (glignlint/atomicmix), though this
		// sequential loop has no concurrent writer.
		atomic.AddInt64(&res.EdgesProcessed, atomic.LoadInt64(&r.EdgesTraversed))
		atomic.AddInt64(&res.LaneRelaxations, atomic.LoadInt64(&r.EdgesTraversed))
		atomic.AddInt64(&res.ValueWrites, atomic.LoadInt64(&r.ValueWrites))
		// Union sizes are not meaningful for sequential evaluation; record
		// the per-query frontier history of the longest query instead.
		if len(r.FrontierSizes) > len(res.UnionFrontierSizes) {
			res.UnionFrontierSizes = r.FrontierSizes
		}
	}
	return res, nil
}
