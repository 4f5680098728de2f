package core

import (
	"sync/atomic"

	"github.com/glign/glign/internal/frontier"
	"github.com/glign/glign/internal/graph"
	"github.com/glign/glign/internal/par"
	"github.com/glign/glign/internal/queries"
)

// Direction optimization for the query-oblivious engine — an extension
// beyond the paper (which assumes the push model throughout): when the
// unified frontier is dense by Ligra's heuristic, a global iteration runs
// in *pull* mode over the edge-reversed graph. Each destination vertex
// scans its in-neighbors for frontier members and pulls improvements into
// its own lane block; a destination is written by exactly one worker, and
// its lane block stays cache-resident across all of its in-edges. The
// fixed point is unchanged (monotone kernels; Theorem 3.2 applies to
// either direction).
//
// Enable by setting Options.ReverseGraph (the alignment profile retains one
// as Profile.Rev). Tracing runs ignore the optimization so the replayed
// access stream keeps modelling the paper's push design.

// pullIteration runs one dense global iteration: for every vertex, pull
// from active in-neighbors across every lane. It adds the improved vertices
// to next, which the caller hands in empty.
func pullIteration(rev *graph.Graph, st *BatchSetup, kinds []queries.OpKind,
	cur, next *frontier.Subset, pool *par.Pool, workers int, res *BatchResult) {
	n, b := st.N, st.B
	// Homogeneous batches get the fused per-kind loop, as in push mode.
	homo := kinds[0]
	for _, kd := range kinds {
		if kd != homo {
			homo = queries.OpCustom
			break
		}
	}
	pool.For(n, workers, 0, func(lo, hi int) {
		var edges, relaxes, writes int64
		for d := lo; d < hi; d++ {
			ins, ws := rev.OutEdges(graph.VertexID(d))
			dbase := d * st.VStride
			improved := 0
			for j, s := range ins {
				if !cur.Contains(s) {
					continue
				}
				edges++
				w := graph.Weight(1)
				if ws != nil {
					w = ws[j]
				}
				sbase := int(s) * st.VStride
				relaxes += int64(b)
				improved += pullEdge(st, homo, kinds, sbase, dbase, w)
			}
			if improved > 0 {
				writes += int64(improved)
				next.AddSync(graph.VertexID(d))
			}
		}
		atomic.AddInt64(&res.EdgesProcessed, edges)
		atomic.AddInt64(&res.LaneRelaxations, relaxes)
		atomic.AddInt64(&res.ValueWrites, writes)
	})
}

// pullEdge relaxes every lane of one in-edge with the fused fast paths; it
// returns how many lanes improved.
func pullEdge(st *BatchSetup, homo queries.OpKind, kinds []queries.OpKind, sbase, dbase int, w graph.Weight) int {
	b := st.B
	improved := 0
	wv := queries.Value(w)
	switch homo {
	case queries.OpBFS:
		for i := 0; i < b; i++ {
			if sv := st.Vals.Get(sbase + st.LaneOff[i]); sv != st.Identity[i] && st.Vals.ImproveMin(dbase+st.LaneOff[i], sv+1) {
				improved++
			}
		}
	case queries.OpSSSP:
		for i := 0; i < b; i++ {
			if sv := st.Vals.Get(sbase + st.LaneOff[i]); sv != st.Identity[i] && st.Vals.ImproveMin(dbase+st.LaneOff[i], sv+wv) {
				improved++
			}
		}
	case queries.OpSSWP:
		for i := 0; i < b; i++ {
			sv := st.Vals.Get(sbase + st.LaneOff[i])
			if sv == st.Identity[i] {
				continue
			}
			cand := wv
			if sv < cand {
				cand = sv
			}
			if st.Vals.ImproveMax(dbase+st.LaneOff[i], cand) {
				improved++
			}
		}
	case queries.OpSSNP:
		for i := 0; i < b; i++ {
			sv := st.Vals.Get(sbase + st.LaneOff[i])
			if sv == st.Identity[i] {
				continue
			}
			cand := wv
			if sv > cand {
				cand = sv
			}
			if st.Vals.ImproveMin(dbase+st.LaneOff[i], cand) {
				improved++
			}
		}
	case queries.OpViterbi:
		for i := 0; i < b; i++ {
			if sv := st.Vals.Get(sbase + st.LaneOff[i]); sv != st.Identity[i] && st.Vals.ImproveMax(dbase+st.LaneOff[i], sv/wv) {
				improved++
			}
		}
	default:
		for i := 0; i < b; i++ {
			sv := st.Vals.Get(sbase + st.LaneOff[i])
			if sv == st.Identity[i] {
				continue
			}
			if queries.RelaxImprove(st.Vals, kinds[i], st.Kernels[i], dbase+st.LaneOff[i], sv, w) {
				improved++
			}
		}
	}
	return improved
}

// shouldPull applies Ligra's density heuristic to the unified frontier. The
// out-degree sum over the frontier is a fold, so it runs as a parallel
// reduction on the pool (exact: integer addition commutes); the decision is
// made once per global iteration on frontiers that can span most of the
// graph.
func shouldPull(g *graph.Graph, cur *frontier.Subset, pool *par.Pool, workers int) bool {
	active := cur.Sparse()
	outSum := par.ForReduce(pool, len(active), workers, 0, 0,
		func(lo, hi int, acc int) int {
			for i := lo; i < hi; i++ {
				acc += g.OutDegree(active[i])
			}
			return acc
		},
		func(a, b int) int { return a + b })
	return cur.IsDense(outSum, g.NumEdges())
}
