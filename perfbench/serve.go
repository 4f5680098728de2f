package main

import (
	"context"
	"fmt"
	"sync"
	"time"

	"github.com/glign/glign"
	"github.com/glign/glign/internal/core"
	"github.com/glign/glign/internal/systems"
	"github.com/glign/glign/internal/telemetry"
)

// batchRecord is one batch the server's engine evaluated.
type batchRecord struct {
	start, end time.Time
	queries    []glign.Query
}

// recordingEngine wraps the method's engine for ServeConfig.Engine. It keeps
// the inner Name() (the server compares it to pick engine options) and
// returns the inner results untouched; it only records each batch's start,
// end and queries.
type recordingEngine struct {
	inner   core.Engine
	mu      sync.Mutex
	records []batchRecord
}

func (e *recordingEngine) Name() string { return e.inner.Name() }

func (e *recordingEngine) Run(g *glign.Graph, batch []glign.Query, opt core.Options) (*core.BatchResult, error) {
	start := time.Now()
	br, err := e.inner.Run(g, batch, opt)
	end := time.Now()
	e.mu.Lock()
	e.records = append(e.records, batchRecord{start: start, end: end, queries: append([]glign.Query(nil), batch...)})
	e.mu.Unlock()
	return br, err
}

func (e *recordingEngine) batches() []batchRecord {
	e.mu.Lock()
	defer e.mu.Unlock()
	return append([]batchRecord(nil), e.records...)
}

// sent is one arrival of the schedule as the generator sent it.
type sent struct {
	due, submitStart, submitEnd, doneAt time.Time
	// hit marks a ticket the result cache completed inside Submit.
	hit  bool
	err  error
	vals []glign.Value // kept for checked arrivals only
}

// serveRun is the outcome of one open-loop session.
type serveRun struct {
	sent  []sent
	stats *telemetry.ServingMetrics
}

// checkEvery selects the arrivals whose values are checked against the
// oracle: every checkEvery-th one.
const checkEvery = 8

// runServe starts glign.Serve with its default config on g (engine
// overridden by rec when non-nil), sends the schedule open-loop, bumps the
// epoch every bump, waits for every ticket and closes the server.
func runServe(g *glign.Graph, prof *glign.AlignmentProfile, workers int, pool *glign.Pool,
	schedule []arrival, bump time.Duration, rec *recordingEngine) (serveRun, error) {
	cfg := glign.ServeConfig{Workers: workers, Pool: pool, Profile: prof}
	if rec != nil {
		cfg.Engine = rec
	}
	srv, err := glign.Serve(g, cfg)
	if err != nil {
		return serveRun{}, err
	}
	ctx := context.Background()
	out := make([]sent, len(schedule))
	var wg sync.WaitGroup
	start := time.Now()
	nextBump := bump
	for i, a := range schedule {
		for bump > 0 && nextBump <= a.at {
			time.Sleep(time.Until(start.Add(nextBump)))
			srv.BumpEpoch()
			nextBump += bump
		}
		s := &out[i]
		s.due = start.Add(a.at)
		time.Sleep(time.Until(s.due))
		s.submitStart = time.Now()
		t, err := srv.Submit(ctx, a.q)
		s.submitEnd = time.Now()
		if err != nil {
			s.err, s.doneAt = err, s.submitEnd
			continue
		}
		keep := i%checkEvery == 0
		select {
		case <-t.Done():
			s.hit, s.doneAt = true, s.submitEnd
			vals, err := t.Wait(ctx)
			s.err = err
			if keep {
				s.vals = vals
			}
			continue
		default:
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			vals, err := t.Wait(ctx)
			s.doneAt = time.Now()
			s.err = err
			if keep {
				s.vals = vals
			}
		}()
	}
	wg.Wait()
	if err := srv.Close(); err != nil {
		return serveRun{}, fmt.Errorf("closing server: %w", err)
	}
	return serveRun{sent: out, stats: srv.Stats()}, nil
}

// serveResult summarizes a session against its latency limit.
type serveResult struct {
	latMs               []float64 // answered arrivals, due time to answer
	answered, withinSLO int
	// failed counts refusals, failed tickets and wrong answers; refusals
	// lists the first two kinds, mismatches the third.
	failed               int
	refusals, mismatches []error
}

// summarize checks the kept values against the oracle and classifies every
// arrival. A refusal, a failed ticket or a wrong answer is a failure and
// misses the latency limit.
func summarize(r serveRun, o *golden, schedule []arrival) serveResult {
	var res serveResult
	for i, s := range r.sent {
		if s.err != nil {
			res.failed++
			res.refusals = append(res.refusals, fmt.Errorf("arrival %d: %w", i, s.err))
			continue
		}
		if s.vals != nil {
			if err := o.check(schedule[i].q, s.vals); err != nil {
				res.failed++
				res.mismatches = append(res.mismatches, fmt.Errorf("arrival %d: %w", i, err))
				continue
			}
		}
		lat := s.doneAt.Sub(s.due)
		res.answered++
		res.latMs = append(res.latMs, float64(lat)/float64(time.Millisecond))
		if lat <= slo {
			res.withinSLO++
		}
	}
	return res
}

// servePlanEngine resolves the engine glign.Serve runs for its default
// method, for recordingEngine to wrap.
func servePlanEngine(g *glign.Graph, prof *glign.AlignmentProfile, workers int, pool *glign.Pool) (core.Engine, error) {
	plan, err := systems.PlanFor(glign.MethodGlign, g, prof, systems.Config{Workers: workers, Pool: pool}, nil)
	if err != nil {
		return nil, err
	}
	return plan.Engine, nil
}

// serveLayers derives the serve layer metrics of a traced session from the
// recorded batches and the server's own counters, and adds a span per
// recorded batch to tr.
func serveLayers(tr *tracer, r serveRun, records []batchRecord, schedule []arrival) layerMetrics {
	byKey := map[string][]int{}
	var engineMs, occupancy []float64
	root := -1
	if len(records) > 0 {
		root = tr.add("serve.session", r.sent[0].due, records[len(records)-1].end, -1, -1)
	}
	for bi, b := range records {
		engineMs = append(engineMs, float64(b.end.Sub(b.start))/float64(time.Millisecond))
		occupancy = append(occupancy, float64(len(b.queries)))
		for _, q := range b.queries {
			byKey[q.String()] = append(byKey[q.String()], bi)
		}
		tr.add("serve.batch", b.start, b.end, root, bi)
	}
	var submitUs, waitMs, lagMs []float64
	for i, s := range r.sent {
		submitUs = append(submitUs, float64(s.submitEnd.Sub(s.submitStart))/float64(time.Microsecond))
		lagMs = append(lagMs, float64(s.submitStart.Sub(s.due))/float64(time.Millisecond))
		if s.err != nil || s.hit {
			continue
		}
		// The ticket ran in the first batch holding its query that was
		// still running when it was submitted (a coalesced ticket may join
		// a batch already executing).
		for _, bi := range byKey[schedule[i].q.String()] {
			if b := records[bi]; !b.end.Before(s.submitEnd) {
				waitMs = append(waitMs, float64(max(0, b.start.Sub(s.due)))/float64(time.Millisecond))
				break
			}
		}
	}
	st := r.stats
	flushes := st.WindowFlushes + st.SizeFlushes + st.DrainFlushes
	_, waitTail := tail(waitMs)
	_, lagTail := tail(lagMs)
	return layerMetrics{
		"serve.submit_us_p50":        median(submitUs),
		"serve.queue_wait_ms_p50":    median(waitMs),
		"serve.queue_wait_ms_p99":    waitTail,
		"serve.engine_ms_p50":        median(engineMs),
		"serve.batch_occupancy_mean": mean(occupancy),
		"serve.cache_hit_share":      float64(st.CacheHits) / float64(max(st.CacheHits+st.CacheMisses, 1)),
		"serve.dedup_coalesced":      float64(st.DedupCoalesced),
		"serve.cache_invalidations":  float64(st.CacheInvalidations),
		"serve.window_flush_share":   float64(st.WindowFlushes) / float64(max(flushes, 1)),
		"serve.rejected":             float64(st.RejectedFull + st.Shed),
		"serve.gen_lag_p99_ms":       lagTail,
	}
}

// kneeRates are the offered rates of the knee sweep, in queries per second.
var kneeRates = []float64{100, 200, 300, 400, 600}

// kneeSeconds is how long each rate of the sweep sends.
const kneeSeconds = 2.5

// knee sweeps kneeRates with a fresh server per rate and returns the
// highest rate whose tail latency meets the limit with every arrival
// answered correctly. The sweep stops at the first rate that misses.
func knee(s serveSpec, g *glign.Graph, prof *glign.AlignmentProfile, workers int, pool *glign.Pool,
	o *golden, seed int64, note func(string, ...any)) (float64, []error, error) {
	best := 0.0
	for _, rate := range kneeRates {
		schedule := serveSchedule(s, g, prof, rate, int(rate*kneeSeconds), seed)
		r, err := runServe(g, prof, workers, pool, schedule, epochBump, nil)
		if err != nil {
			return 0, nil, err
		}
		res := summarize(r, o, schedule)
		if len(res.mismatches) > 0 {
			return 0, res.mismatches, nil
		}
		pm, tailMs := tail(res.latMs)
		note("knee sweep: %.0f qps, %d arrivals, p%.1f %.2f ms, %d failed", rate, len(schedule), float64(pm)/10, tailMs, res.failed)
		if res.failed > 0 || tailMs > float64(slo)/float64(time.Millisecond) {
			break
		}
		best = rate
	}
	return best, nil, nil
}
