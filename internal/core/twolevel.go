package core

import (
	"sync/atomic"

	"github.com/glign/glign/internal/frontier"
	"github.com/glign/glign/internal/graph"
	"github.com/glign/glign/internal/queries"
)

// twoLevel is the unified + separate frontier design of paper Figure 5-b:
// the synchronized frontier traversal used by Ligra-C (the paper's extended
// Ligra baseline), Krill and SimGQ. A unified frontier is the OR of B
// per-query frontiers; traversal walks the unified frontier and, for each
// active vertex, probes every query's separate frontier to decide which
// lanes to relax. The B extra bitmap arrays and the two-level checking are
// exactly the costs Glign's query-oblivious frontier eliminates.
type twoLevel struct{}

// LigraC is the two-level frontier engine ("Ligra-C" in the paper's tables).
var LigraC Engine = twoLevel{}

func (twoLevel) Name() string { return "Ligra-C" }

func (twoLevel) Run(g *graph.Graph, batch []queries.Query, opt Options) (*BatchResult, error) {
	// Convergence kernels have no per-query frontiers to two-level; route
	// them to the shared lane-fused Jacobi evaluator.
	if queries.AnyConvergent(batch) {
		return RunConvergenceBatch(g, batch, opt)
	}
	return RunFrontier(g, batch, opt, LayoutPadded, LayoutTwoLevel, newTwoLevelPolicy)
}

// twoLevelPolicy is Ligra-C's frontier policy: the unified frontier plus B
// per-lane frontiers. The lane frontiers ping-pong with nextSep: the
// retired set is cleared and refilled as the next iteration's output. The
// union is rebuilt in place from the new lane frontiers.
type twoLevelPolicy struct {
	t            *Traversal
	union        *frontier.Subset
	sep, nextSep []*frontier.Subset
}

func newTwoLevelPolicy(t *Traversal) FrontierPolicy {
	n, b := t.St.N, t.St.B
	p := &twoLevelPolicy{
		t:       t,
		union:   frontier.New(n),
		sep:     make([]*frontier.Subset, b),
		nextSep: make([]*frontier.Subset, b),
	}
	for i := range p.sep {
		p.sep[i] = frontier.New(n)
		p.nextSep[i] = frontier.New(n)
	}
	return p
}

func (p *twoLevelPolicy) Inject(qi int, src graph.VertexID) {
	p.sep[qi].Add(src)
	p.union.Add(src)
	if tr, addr := p.t.Tracer, p.t.Addr; tr != nil {
		tr.Access(addr.values+int64(int(src)*p.t.St.B+qi)*8, 8, true)
		tr.Access(addr.sepCur[qi]+int64(src>>6)*8, 8, true)
		tr.Access(addr.unionCur+int64(src>>6)*8, 8, true)
	}
}

func (p *twoLevelPolicy) FrontierSize() int { return p.union.Count() }

func (p *twoLevelPolicy) Step() {
	g, st, res, kinds := p.t.G, p.t.St, p.t.Res, p.t.Kinds
	tr, addr, b := p.t.Tracer, p.t.Addr, p.t.St.B
	pool, workers := p.t.Pool, p.t.Workers
	union, sep, nextSep := p.union, p.sep, p.nextSep
	for _, s := range nextSep {
		s.Clear()
	}
	active := union.Sparse(p.t.Pool, p.t.Workers)
	if tr != nil {
		TraceRegionScan(tr, addr.unionCur, int64(len(union.Words()))*8)
	}
	pool.For(len(active), workers, 0, func(lo, hi int) {
		lanes := make([]int32, 0, b)
		var edges, relaxes, writes int64
		for ai := lo; ai < hi; ai++ {
			v := active[ai]
			base := int(v) * st.VStride
			// Second-level check: probe every query's separate
			// frontier (B scattered bitmap reads — the cost of the
			// two-level design).
			lanes = lanes[:0]
			for i := 0; i < b; i++ {
				if tr != nil {
					tr.Access(addr.sepCur[i]+int64(v>>6)*8, 8, false)
				}
				if sep[i].Contains(v) {
					lanes = append(lanes, int32(i))
				}
			}
			if len(lanes) == 0 {
				continue
			}
			if tr != nil {
				tr.Access(addr.offsets+int64(v)*4, 8, false)
				for _, li := range lanes {
					tr.Access(addr.values+int64(base+int(li))*8, 8, false)
				}
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
				for _, li := range lanes {
					i := int(li)
					relaxes++
					if tr != nil {
						tr.Access(addr.values+int64(dbase+i)*8, 8, false)
					}
					if queries.RelaxImprove(st.Vals, kinds[i], st.Kernels[i], dbase+st.LaneOff[i], st.Vals.Get(base+st.LaneOff[i]), w) {
						writes++
						nextSep[i].AddSync(d)
						if tr != nil {
							tr.Access(addr.values+int64(dbase+i)*8, 8, true)
							tr.Access(addr.sepNext[i]+int64(d>>6)*8, 8, true)
							tr.Access(addr.unionNext+int64(d>>6)*8, 8, true)
						}
					}
				}
			}
		}
		atomic.AddInt64(&res.EdgesProcessed, edges)
		atomic.AddInt64(&res.LaneRelaxations, relaxes)
		atomic.AddInt64(&res.ValueWrites, writes)
	})
	// The paper's two-level design maintains the unified frontier with a
	// second per-improvement bitmap CAS (the access the trace above still
	// models). The executed version derives it once per iteration from the
	// quiesced lane frontiers with a word-level OR — same set, no
	// per-improvement union contention on shared cache lines.
	union.UnionOf(pool, workers, nextSep...)
	p.sep, p.nextSep = nextSep, sep
}
