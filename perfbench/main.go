// Command perfbench is the repository benchmark: it measures Glign end to
// end on a query buffer (Runtime.Run) and on the live server (glign.Serve),
// and, in a separate traced run, layer by layer from spans it records
// around calls into each layer's public functions. README.md in this
// directory describes the workloads, the metrics and how they relate.
//
// Run it from the repository root through run.sh, which builds it:
//
//	sh perfbench/run.sh --workload batch-social --seed 1 --seconds 30 --trace 0
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. The exit code is 0 on success,
// 1 when an output disagrees with the reference, 2 on any other error.
package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"

	"github.com/glign/glign"
)

func main() { os.Exit(run(os.Args[1:])) }

// errMismatch marks a run whose outputs disagree with the reference.
var errMismatch = errors.New("output mismatch")

func run(args []string) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload name")
	seed := fs.Int64("seed", 1, "input seed")
	seconds := fs.Int("seconds", 30, "measured seconds per run")
	trace := fs.Int("trace", 0, "1: traced run reporting per-layer metrics")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	sp, err := specByName(*name)
	if err == nil && *seconds < 1 {
		err = fmt.Errorf("--seconds must be at least 1")
	}
	if err == nil && *trace != 0 && *trace != 1 {
		err = fmt.Errorf("--trace must be 0 or 1")
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 2
	}
	b := &bench{spec: sp, seed: *seed, seconds: time.Duration(*seconds) * time.Second,
		workers: min(2, runtime.NumCPU())}
	b.pool = glign.NewPool(b.workers)
	defer b.pool.Close()

	var res result
	if *trace == 1 {
		res, err = b.traced()
	} else {
		res, err = b.untraced()
	}
	if err != nil && !errors.Is(err, errMismatch) {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 2
	}
	if err != nil && len(res.order) == 0 {
		// A mismatch found before any metric was measured.
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	if bad := res.nonFinite(); bad != "" {
		fmt.Fprintf(os.Stderr, "perfbench: metric %s could not be measured\n", bad)
		return 2
	}
	res.print(os.Stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	return 0
}

// bench holds one run's settings and its set-up.
type bench struct {
	spec    spec
	seed    int64
	seconds time.Duration
	workers int
	pool    *glign.Pool

	batchG, serveG   *glign.Graph
	batchRT, serveRT *glign.Runtime
	// setupS and setupWallS are the CPU and wall seconds of each set-up
	// round; profileS is the batch graph's profile build's wall share of it.
	setupS, setupWallS, profileS []float64
}

// setupRounds is how many times a run sets up; setup_s is the median.
const setupRounds = 5

// setup generates the workload's two graphs (batch, then serving) and
// builds their alignment profiles, setupRounds times, keeping the last
// round.
func (b *bench) setup() error {
	build := func(dataset, size string) (*glign.Graph, *glign.Runtime, time.Duration, error) {
		g, err := glign.Generate(dataset, size)
		if err != nil {
			return nil, nil, 0, err
		}
		rt, err := glign.NewRuntime(g, glign.WithWorkers(b.workers), glign.WithPool(b.pool))
		if err != nil {
			return nil, nil, 0, err
		}
		t0 := time.Now()
		rt.Profile()
		return g, rt, time.Since(t0), nil
	}
	for r := 0; r < setupRounds; r++ {
		runtime.GC()
		c0, t0 := cpuTime(), time.Now()
		gB, rtB, profile, err := build(b.spec.batch.dataset, b.spec.batch.size)
		if err != nil {
			return err
		}
		gS, rtS, _, err := build(b.spec.serve.dataset, b.spec.serve.size)
		if err != nil {
			return err
		}
		b.setupWallS = append(b.setupWallS, time.Since(t0).Seconds())
		b.setupS = append(b.setupS, (cpuTime() - c0).Seconds())
		b.profileS = append(b.profileS, profile.Seconds())
		b.batchG, b.batchRT, b.serveG, b.serveRT = gB, rtB, gS, rtS
	}
	return nil
}

// inputs returns the run's generated inputs: the batch buffer and the
// serving schedule of n arrivals.
func (b *bench) inputs(n int) ([]glign.Query, []arrival) {
	buf := batchBuffer(b.spec.batch, b.batchG, b.batchRT.Profile(), b.seed)
	sch := serveSchedule(b.spec.serve, b.serveG, b.serveRT.Profile(), serveRate, n, b.seed)
	return buf, sch
}

// serveArrivals is the schedule length: the serve leg's share of the run at
// the workload's rate.
func (b *bench) serveArrivals() int {
	return int(serveRate * b.seconds.Seconds() * serveShare)
}

// legSlices is how many alternating slices the untraced legs run in.
const legSlices = 3

// untraced measures the end-to-end metrics.
func (b *bench) untraced() (result, error) {
	if err := b.setup(); err != nil {
		return result{}, err
	}
	buffer, schedule := b.inputs(b.serveArrivals())
	batchBudget := time.Duration(float64(b.seconds) * (1 - serveShare))

	// The two legs alternate in legSlices slices, so each leg's samples
	// span the whole run and a burst of machine noise lands on part of
	// both rather than on all of one.
	oB, oS := newGolden(b.batchG), newGolden(b.serveG)
	var leg batchLeg
	var sent []sent
	var serveCPU time.Duration
	origin := time.Duration(0)
	for k := 0; k < legSlices; k++ {
		part := schedule[k*len(schedule)/legSlices : (k+1)*len(schedule)/legSlices]
		runtime.GC()
		c0 := cpuTime()
		sr, err := runServe(b.serveG, b.serveRT.Profile(), b.workers, b.pool, rebased(part, origin),
			epochBump, nil)
		serveCPU += cpuTime() - c0
		if err != nil {
			return result{}, err
		}
		sent = append(sent, sr.sent...)
		origin = part[len(part)-1].at
		runtime.GC()
		if err := leg.run(b.batchRT, buffer, oB, batchBudget/legSlices, 1); err != nil {
			return result{}, err
		}
	}
	sv := summarize(serveRun{sent: sent}, oS, schedule)

	res := result{attempted: leg.attempted + len(schedule), failed: leg.failed + sv.failed}
	p50 := median(sv.latMs)
	pm, p99 := segmentedTail(sv.latMs)
	res.note("batch leg: %d reps of %d queries; serve leg: %d arrivals, %d answered, tail is the median p%.1f of %d segments",
		len(leg.qps), len(buffer), len(schedule), sv.answered, float64(pm)/10, max(1, sv.answered/tailSegment))
	// Gated figures count CPU time, which VM steal does not inflate; the
	// wall-clock figures beside them moved 25-35% between runs on a VM whose
	// steal came in multi-minute bursts (README.md).
	res.add("batch_cpu_s", median(leg.cpuS), "s")
	res.add("serve_cpu_ms_per_query", float64(serveCPU)/float64(time.Millisecond)/float64(len(schedule)), "ms")
	res.add("serve_slo_share", float64(sv.withinSLO)/float64(len(schedule)), "share")
	res.add("setup_s", median(b.setupS), "s")
	res.add("peak_rss_mb", peakRSSMB(), "MB")
	res.extra("batch_qps", median(leg.qps), "1/s")
	res.extra("batch_latency_p50_s", median(leg.latP50), "s")
	res.extra("serve_p50_ms", p50, "ms")
	res.extra("serve_p99_ms", p99, "ms")
	res.extra("setup_wall_s", median(b.setupWallS), "s")
	res.extra("fail_share", float64(res.failed)/float64(res.attempted), "share")
	return res, res.mismatched(append(leg.errs, sv.mismatches...), sv.refusals)
}

// traced measures the per-layer metrics.
func (b *bench) traced() (result, error) {
	if err := b.setup(); err != nil {
		return result{}, err
	}
	buffer, schedule := b.inputs(b.serveArrivals())
	gB, gS := b.batchG, b.serveG
	oB, oS := newGolden(gB), newGolden(gS)
	tr := newTracer()
	res := result{}

	// The ladder runs first; its last rung is a warm untraced Runtime.Run
	// of Glign, the reference the traced run must equal and the baseline
	// of the tracing overhead.
	m, ref, err := ladder(gB, buffer, b.workers, b.pool)
	if err != nil {
		return result{}, err
	}
	mismatches := checkReport(oB, buffer, ref, 0)
	runtime.GC()
	lm, traced, err := tracedBatch(tr, b.batchRT, gB, buffer, ref, b.workers, b.pool)
	if err != nil {
		return result{}, err
	}
	ref = nil
	res.attempted += (len(ladderRungs) + 1) * len(buffer)
	for k, v := range lm {
		m[k] = v
	}
	m["align.profile_s"] = median(b.profileS)
	untraced := m["ladder.glign_s"]
	m["trace.overhead_s"] = traced.Seconds() - untraced
	m["trace.overhead_share"] = m["trace.overhead_s"] / untraced
	res.note("traced run equals Runtime.Run bit for bit on all %d queries; tracing overhead %+.4f s (%+.2f%%)",
		len(buffer), m["trace.overhead_s"], 100*m["trace.overhead_share"])
	for _, c := range []struct{ metric, method string }{
		{"cachesim.llc_misses.glign", glign.MethodGlign},
		{"cachesim.llc_misses.ligra_c", glign.MethodLigraC},
	} {
		misses, err := llcMisses(c.method, gB, b.batchRT.Profile(), buffer)
		if err != nil {
			return result{}, err
		}
		m[c.metric] = float64(misses)
	}

	runtime.GC()
	inner, err := servePlanEngine(gS, b.serveRT.Profile(), b.workers, b.pool)
	if err != nil {
		return result{}, err
	}
	rec := &recordingEngine{inner: inner}
	sr, err := runServe(gS, b.serveRT.Profile(), b.workers, b.pool, schedule, epochBump, rec)
	if err != nil {
		return result{}, err
	}
	sv := summarize(sr, oS, schedule)
	res.attempted += len(schedule)
	mismatches = append(mismatches, sv.mismatches...)
	for k, v := range serveLayers(tr, sr, rec.batches(), schedule) {
		m[k] = v
	}
	m["serve.latency_ms_p50"] = median(sv.latMs)
	_, m["serve.latency_ms_p99"] = segmentedTail(sv.latMs)
	kneeQPS, kneeMismatches, err := knee(b.spec.serve, gS, b.serveRT.Profile(), b.workers, b.pool, oS, b.seed, res.note)
	if err != nil {
		return result{}, err
	}
	mismatches = append(mismatches, kneeMismatches...)
	m["serve.knee_qps"] = kneeQPS
	res.failed += len(sv.refusals) + len(mismatches)

	names := make([]string, 0, len(m))
	for k := range m {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		res.add(k, m[k], layerUnit(k))
	}
	path := filepath.Join(".bench_build", "spans", fmt.Sprintf("%s-seed%d.json", b.spec.name, b.seed))
	if err := tr.write(path); err != nil {
		return result{}, fmt.Errorf("writing spans: %w", err)
	}
	res.note("%d spans written to %s", len(tr.spans), path)
	return res, res.mismatched(mismatches, sv.refusals)
}

// layerUnit derives a per-layer metric's unit from its name's suffix.
func layerUnit(name string) string {
	switch {
	case strings.HasSuffix(name, "_s"):
		return "s"
	case strings.HasSuffix(name, "_ms"), strings.Contains(name, "_ms_"):
		return "ms"
	case strings.HasSuffix(name, "_us_p50"):
		return "us"
	case strings.HasSuffix(name, "_bytes"):
		return "bytes"
	case strings.HasSuffix(name, "_qps"):
		return "1/s"
	case strings.HasSuffix(name, "_share"), strings.HasSuffix(name, "_ratio"), strings.HasSuffix(name, "imbalance"):
		return "ratio"
	case strings.HasSuffix(name, "_mean"):
		return "queries"
	case strings.HasSuffix(name, "_iters"), name == "core.iterations":
		return "iterations"
	}
	return "count"
}

// peakRSSMB reads the process's peak resident set (VmHWM) from /proc.
func peakRSSMB() float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return math.NaN()
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err == nil {
				return kb / 1024
			}
		}
	}
	return math.NaN()
}

// metric is one reported figure.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is what a run prints: a table of every figure, then one JSON line.
type result struct {
	attempted, failed int
	correct           bool
	order             []string
	metrics           map[string]metric
	extras            []string
	notes             []string
}

func (r *result) add(name string, v float64, unit string) {
	if r.metrics == nil {
		r.metrics = map[string]metric{}
	}
	r.order = append(r.order, name)
	r.metrics[name] = metric{Value: v, Unit: unit}
}

// extra prints a figure in the table without putting it in the JSON line.
func (r *result) extra(name string, v float64, unit string) {
	r.extras = append(r.extras, fmt.Sprintf("%-30s %14.6g %s", name, v, unit))
}

func (r *result) note(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

// mismatched sets correct from the collected mismatches, notes refusals,
// and returns errMismatch when any output was wrong.
func (r *result) mismatched(mismatches, refusals []error) error {
	r.correct = len(mismatches) == 0
	for i, e := range refusals {
		if i == 5 {
			r.note("... %d more failed queries", len(refusals)-i)
			break
		}
		r.note("failed: %v", e)
	}
	if r.correct {
		return nil
	}
	for i, e := range mismatches {
		if i == 5 {
			break
		}
		r.note("MISMATCH: %v", e)
	}
	return fmt.Errorf("%w: %d wrong answers", errMismatch, len(mismatches))
}

// nonFinite names a metric that is NaN or infinite (JSON has no such
// numbers), or returns "".
func (r *result) nonFinite() string {
	for _, name := range r.order {
		if v := r.metrics[name].Value; math.IsNaN(v) || math.IsInf(v, 0) {
			return name
		}
	}
	return ""
}

func (r *result) print(f *os.File) {
	for _, n := range r.notes {
		fmt.Fprintln(f, "#", n)
	}
	for _, name := range r.order {
		m := r.metrics[name]
		fmt.Fprintf(f, "%-30s %14.6g %s\n", name, m.Value, m.Unit)
	}
	for _, e := range r.extras {
		fmt.Fprintln(f, e)
	}
	line, _ := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{r.correct, r.attempted, r.failed, r.metrics})
	fmt.Fprintln(f, string(line))
}
