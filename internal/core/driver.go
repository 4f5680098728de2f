package core

import (
	"github.com/glign/glign/internal/graph"
	"github.com/glign/glign/internal/memtrace"
	"github.com/glign/glign/internal/par"
	"github.com/glign/glign/internal/queries"
)

// Traversal is the per-batch state the iteration driver shares with a
// frontier policy: the graph, the prepared batch and its result, the
// scheduler, and — on traced runs only — the tracer and the simulated
// address map (tracing forces Workers to 1).
type Traversal struct {
	G       *graph.Graph
	St      *BatchSetup
	Res     *BatchResult
	Kinds   []queries.OpKind
	Pool    *par.Pool
	Workers int
	Tracer  memtrace.Tracer
	Addr    *TraceAddressing
}

// FrontierPolicy is what a push-model batch engine supplies to RunFrontier:
// its frontier structures and its edge loop. The driver calls each method a
// fixed number of times per global iteration, never per edge.
type FrontierPolicy interface {
	// Inject activates lane qi at its source vertex src, whose source value
	// the driver has already written, and traces the engine's own
	// injection accesses.
	Inject(qi int, src graph.VertexID)
	// FrontierSize returns the size of the frontier entering the next
	// iteration; zero means no vertex is active for any lane.
	FrontierSize() int
	// Step runs one global iteration: the edge loop over the current
	// frontier and the build of the next one, which then becomes current.
	Step()
}

// RunFrontier evaluates a monotone batch on g through the one global-iteration
// loop every push-model batch engine shares. It prepares the batch in the
// engine's value layout, hands newPolicy the traversal state (trace
// addressing laid out for kind on traced runs), and then owns the loop:
// delayed-start injection, the stop test, the per-iteration frontier sizes
// and iteration count, the telemetry record, and the trace frontier swap.
func RunFrontier(g *graph.Graph, batch []queries.Query, opt Options, layout ValueLayout,
	kind LayoutKind, newPolicy func(*Traversal) FrontierPolicy) (*BatchResult, error) {
	st, err := PrepareBatch(g, batch, opt, layout)
	if err != nil {
		return nil, err
	}
	res := st.NewResult()
	res.UnionFrontierSizes = make([]int, 0, iterCapHint(opt.MaxIterations))
	t := &Traversal{
		G:       g,
		St:      st,
		Res:     res,
		Kinds:   queries.KindsOf(st.Kernels),
		Pool:    par.OrDefault(opt.Pool),
		Workers: opt.Workers,
		Tracer:  opt.Tracer,
	}
	if t.Tracer != nil {
		t.Workers = 1
		t.Addr = NewTraceAddressing(g, st.B, kind)
	}
	p := newPolicy(t)
	for iter := 0; ; iter++ {
		// Inject queries whose delayed start arrives now.
		injected := 0
		for _, qi := range st.injectionsAt(iter) {
			src := st.Sources[qi]
			st.Vals.Set(st.Cell(int(src), qi), st.Kernels[qi].SourceValue())
			p.Inject(qi, src)
			injected++
		}
		frontierSize := p.FrontierSize()
		if frontierSize == 0 && !st.pendingAfter(iter) {
			break
		}
		if opt.MaxIterations > 0 && iter >= opt.MaxIterations {
			break
		}
		res.UnionFrontierSizes = append(res.UnionFrontierSizes, frontierSize)
		res.GlobalIterations++
		prev := countersOf(res)
		p.Step()
		recordIteration(opt.Telemetry, st, res, iter, frontierSize, injected, prev)
		if t.Addr != nil {
			t.Addr.SwapFrontiers()
		}
	}
	return res, nil
}
