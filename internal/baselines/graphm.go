package baselines

import (
	"sort"
	"sync/atomic"

	"github.com/glign/glign/internal/core"
	"github.com/glign/glign/internal/frontier"
	"github.com/glign/glign/internal/graph"
	"github.com/glign/glign/internal/queries"
)

// GraphM models GraphM (Zhao et al., SC'19), which is built on the
// out-of-core system GridGraph: the graph is cut into partitions sized to
// the cache, and in every super-iteration each partition is streamed once
// while *all* jobs (queries) relevant to it are processed against it — a
// "partition-centric" sharing of graph accesses, in contrast to Glign's
// "iteration-centric" alignment. Per-query frontiers are kept separately,
// as each job owns its state in GraphM.
type GraphM struct {
	// PartitionBytes is the target size of one partition's edge block
	// (default 256 KiB — a cache-resident block, as GridGraph sizes them).
	PartitionBytes int64
}

// Name implements core.Engine.
func (GraphM) Name() string { return "GraphM" }

// partitionRanges cuts the vertex space into contiguous ranges whose edge
// blocks are roughly target bytes (4 bytes per target + 4 per weight).
func partitionRanges(g *graph.Graph, target int64) [][2]int {
	if target <= 0 {
		target = 256 << 10
	}
	bytesPerEdge := int64(4)
	if g.Weighted() {
		bytesPerEdge = 8
	}
	n := g.NumVertices()
	var parts [][2]int
	lo := 0
	var acc int64
	for v := 0; v < n; v++ {
		acc += int64(g.OutDegree(graph.VertexID(v))) * bytesPerEdge
		if acc >= target {
			parts = append(parts, [2]int{lo, v + 1})
			lo = v + 1
			acc = 0
		}
	}
	if lo < n {
		parts = append(parts, [2]int{lo, n})
	}
	return parts
}

// Run implements core.Engine.
func (e GraphM) Run(g *graph.Graph, batch []queries.Query, opt core.Options) (*core.BatchResult, error) {
	return core.RunFrontier(g, batch, opt, core.LayoutPadded, core.LayoutTwoLevel,
		func(t *core.Traversal) core.FrontierPolicy {
			return newGraphMPolicy(t, partitionRanges(g, e.PartitionBytes))
		})
}

// graphMPolicy is GraphM's frontier policy: B per-job frontiers, no union,
// and a partition-centric edge loop. The job frontiers ping-pong with
// nextSep: the retired set is cleared and refilled as the next iteration's
// output.
type graphMPolicy struct {
	t            *core.Traversal
	parts        [][2]int
	sep, nextSep []*frontier.Subset
	// active[i] is job i's sparse frontier view, rebuilt every iteration.
	active [][]graph.VertexID
}

func newGraphMPolicy(t *core.Traversal, parts [][2]int) *graphMPolicy {
	n, b := t.St.N, t.St.B
	p := &graphMPolicy{
		t:       t,
		parts:   parts,
		sep:     make([]*frontier.Subset, b),
		nextSep: make([]*frontier.Subset, b),
		active:  make([][]graph.VertexID, b),
	}
	for i := range p.sep {
		p.sep[i] = frontier.New(n)
		p.nextSep[i] = frontier.New(n)
	}
	return p
}

// Inject activates job qi at its source; GraphM's injection write is not
// traced.
func (p *graphMPolicy) Inject(qi int, src graph.VertexID) { p.sep[qi].Add(src) }

// FrontierSize sums the job frontiers (a vertex active for k jobs counts k
// times: GraphM keeps no union).
func (p *graphMPolicy) FrontierSize() int {
	total := 0
	for _, s := range p.sep {
		total += s.Count()
	}
	return total
}

// Step streams every partition once against all jobs.
func (p *graphMPolicy) Step() {
	g, st, res, kinds, parts := p.t.G, p.t.St, p.t.Res, p.t.Kinds, p.parts
	tr, addr, b := p.t.Tracer, p.t.Addr, p.t.St.B
	sep, nextSep, active := p.sep, p.nextSep, p.active
	// Materialize sparse views up front: the partition workers below only
	// read them. Each materialization scans the query's frontier bitmap.
	for i, s := range sep {
		active[i] = s.Sparse(p.t.Pool, p.t.Workers)
		if tr != nil {
			core.TraceRegionScan(tr, addr.SepCurBase(i), s.WordsBytes())
		}
	}
	for _, s := range nextSep {
		s.Clear()
	}
	// Partition-centric processing: stream each edge block once and run
	// every query's active vertices of that block against it. Blocks are
	// processed in parallel; within a block, jobs run one after another
	// (each job is independent in GraphM).
	p.t.Pool.For(len(parts), p.t.Workers, 1, func(plo, phi int) {
		var edges, relaxes, writes int64
		for pi := plo; pi < phi; pi++ {
			vlo, vhi := parts[pi][0], parts[pi][1]
			for qi := 0; qi < b; qi++ {
				act := active[qi]
				if len(act) == 0 {
					continue
				}
				// The sparse view is sorted; binary-search the slice of
				// active vertices inside this partition.
				start := sort.Search(len(act), func(i int) bool { return int(act[i]) >= vlo })
				k := st.Kernels[qi]
				kind := kinds[qi]
				for ai := start; ai < len(act) && int(act[ai]) < vhi; ai++ {
					v := act[ai]
					sv := st.Vals.Get(st.Cell(int(v), qi))
					if tr != nil {
						tr.Access(addr.OffsetAddr(v), 8, false)
						tr.Access(addr.ValueAddr(int(v)*b+qi), 8, false)
					}
					nbrs, ws := g.OutEdges(v)
					for j, d := range nbrs {
						edges++
						relaxes++
						w := graph.Weight(1)
						if ws != nil {
							w = ws[j]
						}
						if tr != nil {
							addr.TraceEdgeRead(tr, g, int64(g.Offsets[v])+int64(j))
							tr.Access(addr.ValueAddr(int(d)*b+qi), 8, false)
						}
						if queries.RelaxImprove(st.Vals, kind, k, st.Cell(int(d), qi), sv, w) {
							writes++
							if tr != nil {
								tr.Access(addr.ValueAddr(int(d)*b+qi), 8, true)
								tr.Access(addr.SepNextWordAddr(qi, d), 8, true)
							}
							nextSep[qi].AddSync(d)
						}
					}
				}
			}
		}
		atomic.AddInt64(&res.EdgesProcessed, edges)
		atomic.AddInt64(&res.LaneRelaxations, relaxes)
		atomic.AddInt64(&res.ValueWrites, writes)
	})
	p.sep, p.nextSep = nextSep, sep
}

var _ core.Engine = GraphM{}
