package engine

import (
	"sync/atomic"

	"github.com/glign/glign/internal/frontier"
	"github.com/glign/glign/internal/graph"
	"github.com/glign/glign/internal/par"
	"github.com/glign/glign/internal/queries"
)

// RunPull evaluates q with the pull model (paper §2.1): in every iteration
// each vertex scans its *in*-neighbors and pulls improvements from the ones
// on the frontier, instead of active vertices pushing to out-neighbors. rev
// must be g.Reverse() (callers typically hold it already for the alignment
// profile). The fixed point is identical to Run's; the access pattern is
// not, which is why the paper's alignment analysis assumes push and this
// implementation exists as an ablation (see the abl-pull experiment).
//
// Pull's advantage is that each vertex has a single writer, so no CAS is
// needed on the value array; its cost is scanning in-neighbors of every
// vertex each iteration (Ligra mitigates this with dense/sparse switching;
// here pull is always dense, which is the regime where Ligra uses it).
func RunPull(g, rev *graph.Graph, q queries.Query, opt Options) *Result {
	n := g.NumVertices()
	k := q.Kernel
	kind := queries.KindOf(k)
	vals := queries.NewValues(n, k.Identity())
	vals.Set(int(q.Source), k.SourceValue())

	cur := frontier.FromVertices(n, q.Source)
	res := &Result{}
	pool := par.OrDefault(opt.Pool)
	workers := opt.Workers

	// Same per-iteration hygiene as Run: preallocate the iteration records
	// and recycle retired frontiers (glignlint/hotalloc).
	iterHint := opt.MaxIterations
	if iterHint <= 0 {
		iterHint = 64
	}
	res.FrontierSizes = make([]int, 0, iterHint)
	// Unconditional like Run's: the reservation must dominate the guarded
	// appends for the hotalloc dataflow (and costs one slice header).
	res.Frontiers = make([]*frontier.Subset, 0, iterHint)

	var scratch *frontier.Subset
	for iter := 0; ; iter++ {
		// Count popcounts the bitmap, so it is read once per iteration.
		frontierSize := cur.Count()
		if frontierSize == 0 || (opt.MaxIterations > 0 && iter >= opt.MaxIterations) {
			break
		}
		res.FrontierSizes = append(res.FrontierSizes, frontierSize)
		if opt.RecordFrontiers {
			res.Frontiers = append(res.Frontiers, cur)
		}
		next := scratch
		scratch = nil
		if next == nil {
			next = frontier.New(n)
		} else {
			next.Clear()
		}
		pool.For(n, workers, 0, func(lo, hi int) {
			var edges, verts int64
			for d := lo; d < hi; d++ {
				ins, ws := rev.OutEdges(graph.VertexID(d))
				improved := false
				for j, s := range ins {
					if !cur.Contains(s) {
						continue
					}
					edges++
					w := graph.Weight(1)
					if ws != nil {
						w = ws[j]
					}
					if queries.RelaxImprove(vals, kind, k, d, vals.Get(int(s)), w) {
						improved = true
					}
				}
				if improved {
					verts++
					next.AddSync(graph.VertexID(d))
				}
			}
			atomic.AddInt64(&res.EdgesTraversed, edges)
			atomic.AddInt64(&res.VerticesProcessed, verts)
		})
		res.Iterations++
		if !opt.RecordFrontiers {
			scratch = cur
		}
		cur = next
	}
	res.Values = vals.Snapshot()
	return res
}
