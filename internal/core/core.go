package core

import (
	"fmt"
	"sync/atomic"

	"github.com/glign/glign/internal/graph"
	"github.com/glign/glign/internal/memtrace"
	"github.com/glign/glign/internal/par"
	"github.com/glign/glign/internal/queries"
	"github.com/glign/glign/internal/telemetry"
)

// ValueLayout selects the physical arrangement of the batched value array.
//
// The paper's §3.5 layout interleaves the B per-query values of each vertex
// (cell of vertex v, query i at v*B+i) so one vertex's values share a cache
// line. That is the right shape for the relaxation inner loop, but it puts
// different queries' values on the same line: concurrent lanes writing
// different queries of neighboring vertices fight over lines (false sharing),
// and per-lane passes (the Jacobi gather of convergence kernels, per-query
// extraction) walk the array at stride B.
//
// The padded layout gives each query lane its own cache-line-aligned segment
// (cell of vertex v, query i at i*laneStride+v, laneStride rounded up to a
// multiple of 8 cells = 64 bytes): lanes never share a line, and per-lane
// passes become unit-stride. Engines address cells through BatchSetup.Cell /
// the VStride+LaneOff pair, so both layouts run through identical code.
//
// The layout is the engine's choice, by its access pattern, passed to
// PrepareBatch: Glign-Intra's push loop visits every lane of an active vertex
// together and takes interleaved; the per-lane engines (Ligra-C, Ligra-S,
// Krill, the baselines and the Jacobi path) take padded. Under a
// memtrace.Tracer every monotone engine runs interleaved, so the simulated
// address stream stays faithful to the paper's model (tracing already forces
// workers=1, so false sharing is moot).
type ValueLayout int

const (
	// LayoutInterleaved is the paper's §3.5 layout: cell(v, i) = v*B+i.
	LayoutInterleaved ValueLayout = iota
	// LayoutPadded is the per-lane layout: cell(v, i) = i*laneStride+v with
	// 64-byte-aligned lane segments.
	LayoutPadded
)

// laneStrideFor rounds the per-lane segment length up to a multiple of 8
// cells, so each 8-byte-cell segment starts and ends on a 64-byte line
// boundary and no two lanes ever share a cache line.
func laneStrideFor(n int) int {
	return (n + 7) &^ 7
}

// layoutGeometry realizes a resolved layout over an n x b value array:
// vertex v, lane i lives at v*vstride+laneOff[i], and total is the array
// length (including alignment padding for the padded layout).
func layoutGeometry(layout ValueLayout, n, b int) (vstride int, laneOff []int, total int) {
	laneOff = make([]int, b)
	if layout == LayoutPadded {
		stride := laneStrideFor(n)
		for i := range laneOff {
			laneOff[i] = i * stride
		}
		return 1, laneOff, stride * b
	}
	for i := range laneOff {
		laneOff[i] = i
	}
	return b, laneOff, n * b
}

// Options configures a batch evaluation.
type Options struct {
	// Workers bounds parallelism; <= 0 means GOMAXPROCS. Runs with a Tracer
	// are forced single-threaded so the access stream is deterministic.
	Workers int
	// Pool is the work-stealing scheduler the engines submit their parallel
	// loops to; nil means the shared par.Default pool. Injecting a pool
	// isolates a run's scheduling (and its steal/imbalance telemetry) from
	// other concurrent work.
	Pool *par.Pool
	// Alignment is the alignment vector I (paper Definition 3.3):
	// Alignment[i] is the global iteration at which query i's evaluation
	// starts. Nil means all zeros (every query starts immediately).
	Alignment []int
	// MaxIterations aborts evaluation when > 0 (tests only; monotone
	// kernels otherwise reach a fixed point).
	MaxIterations int
	// Tracer, when non-nil, receives every simulated memory access.
	Tracer memtrace.Tracer
	// Telemetry, when non-nil, receives one IterationStat per global
	// iteration (per per-query iteration for sequential engines). Nil —
	// the default — makes every hook a no-op nil-receiver call.
	Telemetry *telemetry.BatchTrace
}

// BatchResult is the outcome of evaluating one batch.
type BatchResult struct {
	// B is the batch size (number of queries).
	B int
	// N is the vertex count of the graph.
	N int
	// Values is the flat batched value array. Vertex v, query q lives at
	// v*VStride+LaneOff[q].
	Values *queries.Values
	// VStride and LaneOff describe the value-array layout (see ValueLayout).
	VStride int
	LaneOff []int
	// GlobalIterations counts executed global iterations.
	GlobalIterations int
	// UnionFrontierSizes records the unified frontier size entering every
	// global iteration.
	UnionFrontierSizes []int
	// EdgesProcessed counts edge visits (per active vertex, per out-edge);
	// LaneRelaxations counts per-query relaxation attempts on edges. Their
	// ratio exposes the extra computation the query-oblivious design
	// trades for locality.
	EdgesProcessed  int64
	LaneRelaxations int64
	// ValueWrites counts successful relaxations — value-array improvements
	// actually installed (the write traffic behind paper §3.5's layout).
	ValueWrites int64
	// LaneRounds, LaneConverged and LaneResiduals describe
	// iterate-to-convergence runs (all nil for monotone batches): per lane,
	// the rounds executed, whether the max residual reached the kernel's
	// Epsilon before the round cap, and the final max residual.
	LaneRounds    []int
	LaneConverged []bool
	LaneResiduals []float64
}

// cell returns the value-array index of vertex v, query q under the result's
// layout.
func (r *BatchResult) cell(v, q int) int {
	return v*r.VStride + r.LaneOff[q]
}

// Value returns the final value of vertex v for query q.
func (r *BatchResult) Value(q int, v graph.VertexID) queries.Value {
	return r.Values.Get(r.cell(int(v), q))
}

// QueryValues copies out the full value vector of query q.
func (r *BatchResult) QueryValues(q int) []queries.Value {
	out := make([]queries.Value, r.N)
	for v := 0; v < r.N; v++ {
		out[v] = r.Values.Get(r.cell(v, q))
	}
	return out
}

// Engine evaluates a batch of concurrent queries on a graph.
type Engine interface {
	// Name returns the method name as used in the paper's tables.
	Name() string
	// Run evaluates batch on g.
	Run(g *graph.Graph, batch []queries.Query, opt Options) (*BatchResult, error)
}

// BatchSetup carries the pieces every concurrent engine sets up the same
// way: per-lane kernels, identities, the flat value array, and the delayed
// injection schedule. It is exported so the comparator engines in
// internal/baselines share the exact same batch semantics.
type BatchSetup struct {
	B        int
	N        int
	Kernels  []queries.Kernel
	Identity []queries.Value
	Vals     *queries.Values
	// VStride and LaneOff realize the value-array layout: vertex v, query i
	// lives at v*VStride+LaneOff[i]. Interleaved runs carry VStride=B,
	// LaneOff[i]=i (so Cell(v,i) == v*B+i, the paper's formula); padded runs
	// carry VStride=1, LaneOff[i]=i*laneStride.
	VStride int
	LaneOff []int
	// Alignment[i] = global iteration at which query i starts; MaxAlign is
	// the last injection iteration.
	Alignment []int
	MaxAlign  int
	Sources   []graph.VertexID
}

// Cell returns the value-array index of vertex v, query lane i.
func (st *BatchSetup) Cell(v, i int) int {
	return v*st.VStride + st.LaneOff[i]
}

// NewResult builds the engine result envelope carrying the setup's sizes,
// value array and layout, so BatchResult.Value addresses cells the same way
// the engine wrote them.
func (st *BatchSetup) NewResult() *BatchResult {
	return &BatchResult{
		B:       st.B,
		N:       st.N,
		Values:  st.Vals,
		VStride: st.VStride,
		LaneOff: st.LaneOff,
	}
}

// PrepareBatch validates a batch against a graph and options and builds its
// shared state (value array in the engine's layout — interleaved under a
// tracer — initialized to per-lane identities, injection schedule from the
// alignment vector).
func PrepareBatch(g *graph.Graph, batch []queries.Query, opt Options, layout ValueLayout) (*BatchSetup, error) {
	if len(batch) == 0 {
		return nil, fmt.Errorf("core: empty batch")
	}
	n := g.NumVertices()
	b := len(batch)
	st := &BatchSetup{
		B:        b,
		N:        n,
		Kernels:  make([]queries.Kernel, b),
		Identity: make([]queries.Value, b),
		Sources:  make([]graph.VertexID, b),
	}
	for i, q := range batch {
		if int(q.Source) >= n {
			return nil, fmt.Errorf("core: query %d source v%d out of range (n=%d)", i, q.Source, n)
		}
		// Monotone setup is meaningless for iterate-to-convergence kernels
		// (no identity fill, no CAS relaxation): engines with a Jacobi path
		// route to RunConvergenceBatch before preparing, so reaching this
		// check means the engine has none.
		if _, ok := queries.ConvergentOf(q.Kernel); ok {
			return nil, fmt.Errorf("core: query %d (%s) is an iterate-to-convergence kernel, which this engine does not support (route through Glign, Krill, Ligra-C, Ligra-S or Query-Parallel)", i, q)
		}
		st.Kernels[i] = q.Kernel
		st.Identity[i] = q.Kernel.Identity()
		st.Sources[i] = q.Source
	}
	if opt.Alignment != nil {
		if len(opt.Alignment) != b {
			return nil, fmt.Errorf("core: alignment vector length %d != batch size %d", len(opt.Alignment), b)
		}
		st.Alignment = opt.Alignment
		for _, a := range st.Alignment {
			if a < 0 {
				return nil, fmt.Errorf("core: negative alignment %d", a)
			}
			if a > st.MaxAlign {
				st.MaxAlign = a
			}
		}
	} else {
		st.Alignment = make([]int, b)
	}
	if opt.Tracer != nil {
		layout = LayoutInterleaved
	}
	var total int
	st.VStride, st.LaneOff, total = layoutGeometry(layout, n, b)
	st.Vals = queries.NewValues(total, 0)
	// The identity fill touches every cell; for large graphs that is the
	// batch's first cold pass over the value array, so spread it over the
	// pool (disjoint vertex blocks; Set stores are atomic). Padding cells at
	// lane-segment tails are never addressed and stay zero.
	par.OrDefault(opt.Pool).For(n, opt.Workers, 0, func(lo, hi int) {
		for v := lo; v < hi; v++ {
			base := v * st.VStride
			for i := 0; i < b; i++ {
				st.Vals.Set(base+st.LaneOff[i], st.Identity[i])
			}
		}
	})
	return st, nil
}

// injectionsAt returns the queries whose evaluation starts at global
// iteration iter.
func (st *BatchSetup) injectionsAt(iter int) []int {
	var out []int
	for i, a := range st.Alignment {
		if a == iter {
			out = append(out, i)
		}
	}
	return out
}

// pendingAfter reports whether any query starts strictly after iter.
func (st *BatchSetup) pendingAfter(iter int) bool {
	return iter < st.MaxAlign
}

// activeAt counts the queries whose delayed start has arrived by iter
// (alignment offset <= iter) — the active-query count of telemetry records.
func (st *BatchSetup) activeAt(iter int) int {
	n := 0
	for _, a := range st.Alignment {
		if a <= iter {
			n++
		}
	}
	return n
}

// iterCounters snapshots the cumulative BatchResult counters so an engine
// can report per-iteration deltas to telemetry.
type iterCounters struct {
	edges, relaxes, writes int64
}

// iterCapHint sizes per-iteration record slices (UnionFrontierSizes and
// friends) up front, so the traversal loop never grows them mid-run
// (glignlint/hotalloc): capped runs bound their history exactly, and
// free-running monotone batches converge in O(diameter) rounds, for which 64
// is a generous amortization base.
func iterCapHint(maxIterations int) int {
	if maxIterations > 0 {
		return maxIterations
	}
	return 64
}

// countersOf reads the counters with atomic loads: engines call it between
// parallel phases (the workers' adds already happened-before via par.For's
// join), but atomic loads keep the access protocol uniform — the invariant
// glignlint/atomicmix enforces.
func countersOf(res *BatchResult) iterCounters {
	return iterCounters{
		atomic.LoadInt64(&res.EdgesProcessed),
		atomic.LoadInt64(&res.LaneRelaxations),
		atomic.LoadInt64(&res.ValueWrites),
	}
}

// recordIteration emits one push-mode global-iteration record: the counter
// deltas since prev, plus the frontier and injection state of the iteration.
// The iteration driver calls it after each iteration's parallel phase
// completes.
func recordIteration(bt *telemetry.BatchTrace, st *BatchSetup, res *BatchResult,
	iter, frontierSize, injected int, prev iterCounters) {
	if bt == nil {
		return
	}
	cur := countersOf(res)
	bt.RecordIteration(telemetry.IterationStat{
		Iter:            iter,
		Query:           -1,
		FrontierSize:    frontierSize,
		Mode:            telemetry.ModePush,
		ActiveQueries:   st.activeAt(iter),
		InjectedQueries: injected,
		EdgesProcessed:  cur.edges - prev.edges,
		LaneRelaxations: cur.relaxes - prev.relaxes,
		ValueWrites:     cur.writes - prev.writes,
	})
}
