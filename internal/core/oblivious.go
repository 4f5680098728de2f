package core

import (
	"sync/atomic"

	"github.com/glign/glign/internal/frontier"
	"github.com/glign/glign/internal/graph"
	"github.com/glign/glign/internal/queries"
)

// oblivious is Glign's query-oblivious frontier engine (paper §3.2,
// Figure 5-c): a single unified frontier with no per-query activation state.
// When a vertex is active, it is evaluated for *every* query in the batch —
// safe because all kernels are monotone (Theorem 3.2); lanes whose source
// value is still the kernel identity are skipped, which is exact (relaxing
// an identity can never improve a neighbor) and cheap.
//
// With Options.Alignment set, sources are injected at their scheduled global
// iterations, which is exactly Glign-Inter's "delayed start" (paper §3.3).
type oblivious struct{}

// GlignIntra is the query-oblivious frontier engine ("Glign-Intra" in the
// paper's tables; also the execution engine under Glign-Inter, Glign-Batch
// and full Glign, which differ only in scheduling).
var GlignIntra Engine = oblivious{}

func (oblivious) Name() string { return "Glign-Intra" }

// laneGroup is a run of batch lanes sharing one kernel kind, so the edge
// loop can run one fused (devirtualized) relaxation loop per group. A
// homogeneous batch — the common case — has a single group. relax is the
// kind's block kernel, nil for OpCustom lanes (see relaxCustom).
type laneGroup struct {
	relax queries.LaneRelaxer
	lanes []int32
}

// obliviousScratch is the per-participant state of the EdgeMap passes: the
// policy builds one per pool slot and reuses it across chunks and iterations.
type obliviousScratch struct {
	srcVals []queries.Value
	byKind  [6][]int32 // indexed by OpKind; OpCustom lanes keep interface dispatch
	groups  []laneGroup
	_       [64]byte // keeps the next participant's scratch off this line
}

// newObliviousScratch builds the scratch of one participant. Every buffer
// reserves a cache line past its end: the policy allocates all participants'
// scratch back to back, and each participant rewrites its buffers on every
// active vertex, so small batches would otherwise false-share them.
func newObliviousScratch(b int) *obliviousScratch {
	s := &obliviousScratch{
		srcVals: make([]queries.Value, b, b+8), // + 8 cells of 8 bytes
		groups:  make([]laneGroup, 0, 6+2),     // + 2 groups of 32 bytes
	}
	lanes := make([]int32, len(s.byKind)*b+16) // + 16 lanes of 4 bytes
	for i := range s.byKind {
		s.byKind[i] = lanes[i*b : i*b : (i+1)*b]
	}
	return s
}

// collect snapshots the lane block of the vertex at base and groups its
// non-identity lanes by kernel kind. It returns the number of active lanes.
func (s *obliviousScratch) collect(st *BatchSetup, kinds []queries.OpKind, base int) int {
	for i := range s.byKind {
		s.byKind[i] = s.byKind[i][:0]
	}
	st.Vals.LoadBlock(base, s.srcVals)
	total := 0
	for i, sv := range s.srcVals {
		if sv != st.Identity[i] {
			k := kinds[i]
			s.byKind[k] = append(s.byKind[k], int32(i))
			total++
		}
	}
	s.groups = s.groups[:0]
	for k := range s.byKind {
		if len(s.byKind[k]) > 0 {
			s.groups = append(s.groups, laneGroup{queries.LaneRelaxerOf(queries.OpKind(k)), s.byKind[k]})
		}
	}
	return total
}

// relaxCustom relaxes a group of user-defined (OpCustom) lanes against the
// destination block at dbase through Kernel.Relax/Better dispatch; it
// returns how many lanes improved. Built-in kinds never reach it: their
// block kernels live in queries.
func relaxCustom(st *BatchSetup, src []queries.Value, lanes []int32, dbase int, w graph.Weight) int {
	improved := 0
	for _, li := range lanes {
		k := st.Kernels[li]
		if st.Vals.Improve(dbase+int(li), k.Relax(src[li], w), k.Better) {
			improved++
		}
	}
	return improved
}

func (oblivious) Run(g *graph.Graph, batch []queries.Query, opt Options) (*BatchResult, error) {
	// Iterate-to-convergence kernels have no frontier to unify; they take
	// the lane-fused Jacobi path (per-lane gathers, so padded). Batching
	// layers split mixed buffers by paradigm.
	if queries.AnyConvergent(batch) {
		return RunConvergenceBatch(g, batch, opt)
	}
	// The push loop reads and relaxes every lane of a vertex together, so
	// the paper's vertex-major ValArray[v*B+i] serves it one contiguous block
	// per vertex instead of B cells a lane segment apart. Glign-Intra always
	// runs interleaved (a tracer forces interleaved too), so VStride == B and
	// LaneOff[i] == i: the edge loop and the block kernels index lane li of
	// vertex v as v*B+li directly. TestEngineLayoutResolution pins this.
	return RunFrontier(g, batch, opt, LayoutInterleaved, LayoutUnionOnly, newObliviousPolicy)
}

// obliviousPolicy is Glign-Intra's frontier policy: one unified frontier,
// every active vertex relaxed for all of its non-identity lanes.
type obliviousPolicy struct {
	t *Traversal
	// Two frontiers ping-pong: the retired one is cleared and refilled as
	// the next iteration's output, so no iteration allocates a bitmap.
	cur, next *frontier.Subset
	scratches []*obliviousScratch
}

func newObliviousPolicy(t *Traversal) FrontierPolicy {
	n := t.St.N
	p := &obliviousPolicy{
		t:         t,
		cur:       frontier.New(n),
		next:      frontier.New(n),
		scratches: make([]*obliviousScratch, t.Pool.Participants(t.Workers)),
	}
	for i := range p.scratches {
		p.scratches[i] = newObliviousScratch(t.St.B)
	}
	return p
}

func (p *obliviousPolicy) Inject(qi int, src graph.VertexID) {
	if p.t.Tracer != nil {
		p.t.Tracer.Access(p.t.Addr.ValueAddr(p.t.St.Cell(int(src), qi)), 8, true)
	}
	p.cur.Add(src)
}

func (p *obliviousPolicy) FrontierSize() int { return p.cur.Count() }

func (p *obliviousPolicy) Step() {
	g, st, res, kinds, scratches := p.t.G, p.t.St, p.t.Res, p.t.Kinds, p.scratches
	// Interleaved layout (see Run): vertex v's lane block starts at v*b.
	tr, addr, b, vals := p.t.Tracer, p.t.Addr, p.t.St.B, p.t.St.Vals
	cur, next := p.cur, p.next
	next.Clear()
	active := cur.Sparse(p.t.Pool, p.t.Workers)
	if tr != nil {
		TraceRegionScan(tr, addr.unionCur, int64(len(cur.Words()))*8)
	}
	p.t.Pool.ForSlot(len(active), p.t.Workers, 0, func(lo, hi, slot int) {
		scratch := scratches[slot]
		src := scratch.srcVals
		var edges, relaxes, writes int64
		for ai := lo; ai < hi; ai++ {
			v := active[ai]
			base := int(v) * b
			// Snapshot the source values once per vertex and group the
			// non-identity lanes by kernel kind. The interleaved layout
			// reads the contiguous block ValArray[v*B..v*B+B) — the
			// locality the paper's layout buys.
			activeLanes := scratch.collect(st, kinds, base)
			if tr != nil {
				tr.Access(addr.OffsetAddr(v), 8, false)
				tr.Access(addr.ValueAddr(base), int64(b)*8, false)
			}
			if activeLanes == 0 {
				continue
			}
			nbrs, ws := g.OutEdges(v)
			for j, d := range nbrs {
				edges++
				w := graph.Weight(1)
				if ws != nil {
					w = ws[j]
				}
				dbase := int(d) * b
				relaxes += int64(activeLanes)
				improved := 0
				for _, grp := range scratch.groups {
					if grp.relax != nil {
						improved += grp.relax(vals, dbase, grp.lanes, src, w)
					} else {
						improved += relaxCustom(st, src, grp.lanes, dbase, w)
					}
				}
				if tr != nil {
					eo := int64(g.Offsets[v]) + int64(j)
					addr.TraceEdgeRead(tr, g, eo)
					// The destination's whole lane block is touched.
					tr.Access(addr.ValueAddr(dbase), int64(activeLanes)*8, improved > 0)
				}
				if improved > 0 {
					writes += int64(improved)
					if tr != nil {
						tr.Access(addr.unionNext+int64(d>>6)*8, 8, true)
					}
					next.AddSync(d)
				}
			}
		}
		atomic.AddInt64(&res.EdgesProcessed, edges)
		atomic.AddInt64(&res.LaneRelaxations, relaxes)
		atomic.AddInt64(&res.ValueWrites, writes)
	})
	p.cur, p.next = next, cur
}
