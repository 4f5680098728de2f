package baselines

import (
	"sync"
	"sync/atomic"

	"github.com/glign/glign/internal/core"
	"github.com/glign/glign/internal/engine"
	"github.com/glign/glign/internal/graph"
	"github.com/glign/glign/internal/queries"
)

// Congra models Congra (Pan & Li, ICCD'17), the *asynchronous* concurrent
// design of paper §3.1: every query in the batch is evaluated independently
// by its own parallel Ligra-style evaluation, with no shared global
// iterations — iterations of different queries interleave however the
// scheduler happens to run them. The paper's point about this design is
// that it has no control over traversal alignment: graph accesses may or
// may not overlap, so locality is left to chance. It shares the graph
// (read-only) but neither frontiers nor iteration structure.
type Congra struct {
	// ConcurrentQueries bounds how many queries run at once (Congra's
	// scheduler admits queries up to a memory-bandwidth budget); <= 0 runs
	// the whole batch at once.
	ConcurrentQueries int
}

// Name implements core.Engine.
func (Congra) Name() string { return "Congra" }

// Run implements core.Engine.
func (e Congra) Run(g *graph.Graph, batch []queries.Query, opt core.Options) (*core.BatchResult, error) {
	st, err := core.PrepareBatch(g, batch, opt, core.LayoutPadded)
	if err != nil {
		return nil, err
	}
	res := st.NewResult()
	limit := e.ConcurrentQueries
	if limit <= 0 {
		limit = len(batch)
	}
	sem := make(chan struct{}, limit)
	var wg sync.WaitGroup
	var mu sync.Mutex
	for i, q := range batch {
		wg.Add(1)
		go func(i int, q queries.Query) {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			// Each query gets its own asynchronous parallel evaluation.
			// Telemetry records interleave across queries — exactly the
			// uncontrolled iteration structure the design has.
			r := engine.Run(g, q, engine.Options{
				Workers:       opt.Workers,
				Pool:          opt.Pool,
				MaxIterations: opt.MaxIterations,
				Telemetry:     opt.Telemetry,
				TelemetryLane: i,
			})
			for v := 0; v < st.N; v++ {
				st.Vals.Set(st.Cell(v, i), r.Values[v])
			}
			mu.Lock()
			if r.Iterations > res.GlobalIterations {
				res.GlobalIterations = r.Iterations
			}
			mu.Unlock()
			// The shared counters use atomic adds like every concurrent
			// engine writing a BatchResult (glignlint/atomicmix): this
			// package also updates them from par.For workers, so the whole
			// package must agree on one access protocol. The per-query
			// Result counters are read atomically for the same reason —
			// engine.Run's workers update them with atomic adds.
			atomic.AddInt64(&res.EdgesProcessed, atomic.LoadInt64(&r.EdgesTraversed))
			atomic.AddInt64(&res.LaneRelaxations, atomic.LoadInt64(&r.EdgesTraversed))
			atomic.AddInt64(&res.ValueWrites, atomic.LoadInt64(&r.ValueWrites))
		}(i, q)
	}
	wg.Wait()
	return res, nil
}

var _ core.Engine = Congra{}
