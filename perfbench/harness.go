package main

import (
	"fmt"
	"runtime"
	"sync/atomic"
	"time"

	"github.com/glign/glign"
	"github.com/glign/glign/internal/cachesim"
	"github.com/glign/glign/internal/core"
	"github.com/glign/glign/internal/queries"
	"github.com/glign/glign/internal/sched"
	"github.com/glign/glign/internal/systems"
)

// engineCounts aggregates the counters of every BatchResult of a run.
type engineCounts struct {
	iterations                      int
	edges, relaxations, valueWrites int64
	maxDelay                        int
	batches, maxDisplacement        int
}

// tracedRun rebuilds systems.Run (as Runtime.Run calls it for method) from
// the public calls of each layer, recording a span around every call:
// systems.PlanFor, Policy.MakeBatches, sched.SplitParadigm,
// Profile.AlignmentVector, Engine.Run and BatchResult.QueryValues. It
// returns the per-query values indexed like buffer.
func tracedRun(tr *tracer, method string, g *glign.Graph, prof *glign.AlignmentProfile,
	buffer []glign.Query, cfg systems.Config) ([][]glign.Value, engineCounts, error) {
	var cnt engineCounts
	values := make([][]glign.Value, len(buffer))
	root := tr.begin("systems.run", -1, -1)
	defer tr.end(root)

	s := tr.begin("systems.plan", root, -1)
	plan, err := systems.PlanFor(method, g, prof, cfg, nil)
	tr.end(s)
	if err != nil {
		return nil, cnt, err
	}
	s = tr.begin("sched.make_batches", root, -1)
	batches := plan.Policy.MakeBatches(buffer, cfg.BatchSize)
	tr.end(s)
	s = tr.begin("sched.split_paradigm", root, -1)
	batches = sched.SplitParadigm(buffer, batches)
	tr.end(s)
	cnt.batches = len(batches)
	cnt.maxDisplacement = sched.MaxDisplacement(batches)

	for bi, idx := range batches {
		batch := sched.Select(buffer, idx)
		opt := core.Options{Workers: cfg.Workers, Pool: cfg.Pool}
		if plan.Aligned && !queries.AnyConvergent(batch) {
			s = tr.begin("align.vector", root, bi)
			opt.Alignment = prof.AlignmentVector(batch)
			tr.end(s)
			for _, d := range opt.Alignment {
				cnt.maxDelay = max(cnt.maxDelay, d)
			}
		}
		s = tr.begin("core.engine", root, bi)
		br, err := plan.Engine.Run(g, batch, opt)
		tr.end(s)
		if err != nil {
			return nil, cnt, fmt.Errorf("batch %d: %w", bi, err)
		}
		cnt.iterations += br.GlobalIterations
		// The engines update these from pool workers with atomic adds.
		cnt.edges += atomic.LoadInt64(&br.EdgesProcessed)
		cnt.relaxations += atomic.LoadInt64(&br.LaneRelaxations)
		cnt.valueWrites += atomic.LoadInt64(&br.ValueWrites)
		s = tr.begin("core.extract", root, bi)
		for qi, bufferIdx := range idx {
			values[bufferIdx] = br.QueryValues(qi)
		}
		tr.end(s)
	}
	return values, cnt, nil
}

// layerMetrics are the per-layer figures of the batch leg's traced run.
type layerMetrics map[string]float64

// tracedBatch runs the buffer through tracedRun on pool, asserts that it
// agrees bit for bit with ref, an untraced Runtime.Run of the same buffer,
// and derives the core, par, align, sched and systems layer metrics. It
// also returns the traced wall time.
func tracedBatch(tr *tracer, rt *glign.Runtime, g *glign.Graph, buffer []glign.Query, ref *glign.Report,
	workers int, pool *glign.Pool) (layerMetrics, time.Duration, error) {
	before := pool.Stats()
	first := len(tr.spans)
	values, cnt, err := tracedRun(tr, glign.MethodGlign, g, rt.Profile(), buffer,
		systems.Config{BatchSize: 64, Workers: workers, Pool: pool})
	if err != nil {
		return nil, 0, fmt.Errorf("traced run: %w", err)
	}
	ps := pool.Stats().Sub(before)
	for i := range buffer {
		if d := firstDiff(ref.Values(i), values[i]); d >= 0 {
			return nil, 0, fmt.Errorf("%w: traced run disagrees with Runtime.Run: query %d (%s) at vertex %d",
				errMismatch, i, buffer[i], d)
		}
	}
	root := tr.spans[first]
	m := layerMetrics{
		"core.engine_s":          tr.total("core.engine").Seconds(),
		"core.iterations":        float64(cnt.iterations),
		"core.edges":             float64(cnt.edges),
		"core.lane_relaxations":  float64(cnt.relaxations),
		"core.value_writes":      float64(cnt.valueWrites),
		"core.useful_ratio":      float64(cnt.valueWrites) / float64(max(cnt.relaxations, 1)),
		"core.extract_s":         tr.total("core.extract").Seconds(),
		"par.chunks":             float64(ps.Chunks),
		"par.steals":             float64(ps.Steals),
		"par.parks":              float64(ps.Parks),
		"par.imbalance":          ps.ImbalanceRatio(),
		"align.vector_s":         tr.total("align.vector").Seconds(),
		"align.delay_max_iters":  float64(cnt.maxDelay),
		"align.profile_bytes":    float64(rt.Profile().MemoryBytes()),
		"sched.make_batches_s":   tr.total("sched.make_batches").Seconds(),
		"sched.batches":          float64(cnt.batches),
		"sched.max_displacement": float64(cnt.maxDisplacement),
		"systems.glue_s":         selfTime(tr.spans, first).Seconds(),
	}
	return m, root.End - root.Start, nil
}

// ladderRungs is the paper's ladder: each rung adds one alignment level.
var ladderRungs = []struct{ metric, method string }{
	{"ladder.ligra_c_s", glign.MethodLigraC},
	{"ladder.intra_s", glign.MethodGlignIntra},
	{"ladder.inter_s", glign.MethodGlignInter},
	{"ladder.batch_s", glign.MethodGlignBatch},
	{"ladder.glign_s", glign.MethodGlign},
}

// ladder times one Runtime.Run of every rung on the same buffer, checks
// that every rung's values equal the first rung's bit for bit, and returns
// the last rung's (Glign's) report.
func ladder(g *glign.Graph, buffer []glign.Query, workers int, pool *glign.Pool) (layerMetrics, *glign.Report, error) {
	m := layerMetrics{}
	var first, rep *glign.Report
	for _, rung := range ladderRungs {
		rt, err := glign.NewRuntime(g, glign.WithMethod(rung.method), glign.WithWorkers(workers), glign.WithPool(pool))
		if err != nil {
			return nil, nil, err
		}
		rt.Profile()
		runtime.GC()
		t0 := time.Now()
		rep, err = rt.Run(buffer)
		wall := time.Since(t0)
		if err != nil {
			return nil, nil, fmt.Errorf("%s: %w", rung.method, err)
		}
		m[rung.metric] = wall.Seconds()
		if first == nil {
			first = rep
			continue
		}
		for i := range buffer {
			if d := firstDiff(first.Values(i), rep.Values(i)); d >= 0 {
				return nil, nil, fmt.Errorf("%w: %s disagrees with %s: query %d (%s) at vertex %d",
					errMismatch, rung.method, ladderRungs[0].method, i, buffer[i], d)
			}
		}
	}
	return m, rep, nil
}

// llcMisses replays the buffer's first batch of 64 queries through the
// simulated last-level cache (cachesim.DefaultLLC) at workers=1, where the
// access stream, and so the miss count, is exact.
func llcMisses(method string, g *glign.Graph, prof *glign.AlignmentProfile, buffer []glign.Query) (int64, error) {
	batch := buffer[:min(64, len(buffer))]
	cache := cachesim.New(cachesim.DefaultLLC())
	_, err := systems.Run(method, g, batch, systems.Config{BatchSize: len(batch), Workers: 1,
		Profile: prof, Tracer: cache})
	if err != nil {
		return 0, fmt.Errorf("%s cache replay: %w", method, err)
	}
	return cache.Misses(), nil
}
