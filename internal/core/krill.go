package core

import (
	"fmt"
	"math/bits"
	"sync/atomic"

	"github.com/glign/glign/internal/frontier"
	"github.com/glign/glign/internal/graph"
	"github.com/glign/glign/internal/queries"
)

// krill models the Krill system (Chen et al., SC'21): like Ligra-C it
// tracks per-query activation, but it fuses the B separate frontiers into a
// per-vertex query bitmask so that a vertex's activation state for all
// queries shares one cache line, and it processes all active lanes of a
// vertex in one fused pass over its edges ("kernel fusion" + property-data
// management). It therefore sits between Ligra-C and Glign-Intra in both
// frontier footprint and locality, which is where the paper measures it.
type krill struct{}

// Krill is the fused two-level engine. Batches are limited to 64 queries
// (one bitmask word), matching the paper's default batch size.
var Krill Engine = krill{}

func (krill) Name() string { return "Krill" }

func (krill) Run(g *graph.Graph, batch []queries.Query, opt Options) (*BatchResult, error) {
	// Convergence kernels have no activation bitmask to fuse; route them to
	// the shared lane-fused Jacobi evaluator (which has no 64-lane limit).
	if queries.AnyConvergent(batch) {
		return RunConvergenceBatch(g, batch, opt)
	}
	if len(batch) > frontier.MaxQueries {
		return nil, fmt.Errorf("core: Krill engine supports at most %d queries per batch, got %d",
			frontier.MaxQueries, len(batch))
	}
	return RunFrontier(g, batch, opt, LayoutPadded, LayoutQueryMask, newKrillPolicy)
}

// krillPolicy is Krill's frontier policy: the unified frontier plus the
// per-vertex query masks. Both ping-pong with their next-iteration copies:
// the retired pair is cleared and refilled as the next iteration's output.
type krillPolicy struct {
	t                *Traversal
	union, nextUnion *frontier.Subset
	qm, nextQM       *frontier.QueryMask
}

func newKrillPolicy(t *Traversal) FrontierPolicy {
	n := t.St.N
	return &krillPolicy{
		t:         t,
		union:     frontier.New(n),
		nextUnion: frontier.New(n),
		qm:        frontier.NewQueryMask(n),
		nextQM:    frontier.NewQueryMask(n),
	}
}

func (p *krillPolicy) Inject(qi int, src graph.VertexID) {
	p.qm.Set(src, qi)
	p.union.Add(src)
	if tr, addr := p.t.Tracer, p.t.Addr; tr != nil {
		tr.Access(addr.values+int64(int(src)*p.t.St.B+qi)*8, 8, true)
		tr.Access(addr.qmaskCur+int64(src)*8, 8, true)
		tr.Access(addr.unionCur+int64(src>>6)*8, 8, true)
	}
}

func (p *krillPolicy) FrontierSize() int { return p.union.Count() }

func (p *krillPolicy) Step() {
	g, st, res, kinds := p.t.G, p.t.St, p.t.Res, p.t.Kinds
	tr, addr, b := p.t.Tracer, p.t.Addr, p.t.St.B
	union, nextUnion, qm, nextQM := p.union, p.nextUnion, p.qm, p.nextQM
	nextUnion.Clear()
	nextQM.Clear()
	active := union.Sparse(p.t.Pool, p.t.Workers)
	if tr != nil {
		TraceRegionScan(tr, addr.unionCur, int64(len(union.Words()))*8)
	}
	p.t.Pool.For(len(active), p.t.Workers, 0, func(lo, hi int) {
		var edges, relaxes, writes int64
		for ai := lo; ai < hi; ai++ {
			v := active[ai]
			base := int(v) * st.VStride
			mask := qm.Get(v)
			if tr != nil {
				tr.Access(addr.qmaskCur+int64(v)*8, 8, false)
			}
			if mask == 0 {
				continue
			}
			if tr != nil {
				tr.Access(addr.offsets+int64(v)*4, 8, false)
				tr.Access(addr.values+int64(base)*8, int64(b)*8, false)
			}
			nbrs, ws := g.OutEdges(v)
			for j, d := range nbrs {
				edges++
				w := graph.Weight(1)
				if ws != nil {
					w = ws[j]
				}
				dbase := int(d) * st.VStride
				if tr != nil {
					eo := int64(g.Offsets[v]) + int64(j)
					addr.TraceEdgeRead(tr, g, eo)
				}
				anyImproved := false
				for m := mask; m != 0; m &= m - 1 {
					i := bits.TrailingZeros64(m)
					relaxes++
					if tr != nil {
						tr.Access(addr.values+int64(dbase+i)*8, 8, false)
					}
					if queries.RelaxImprove(st.Vals, kinds[i], st.Kernels[i], dbase+st.LaneOff[i], st.Vals.Get(base+st.LaneOff[i]), w) {
						writes++
						anyImproved = true
						nextQM.Set(d, i)
						nextUnion.AddSync(d)
						if tr != nil {
							tr.Access(addr.values+int64(dbase+i)*8, 8, true)
						}
					}
				}
				if tr != nil && anyImproved {
					tr.Access(addr.qmaskNext+int64(d)*8, 8, true)
					tr.Access(addr.unionNext+int64(d>>6)*8, 8, true)
				}
			}
		}
		atomic.AddInt64(&res.EdgesProcessed, edges)
		atomic.AddInt64(&res.LaneRelaxations, relaxes)
		atomic.AddInt64(&res.ValueWrites, writes)
	})
	p.union, p.nextUnion = nextUnion, union
	p.qm, p.nextQM = nextQM, qm
}
