package main

import (
	"fmt"
	"math"
	"runtime"
	"syscall"
	"time"

	"github.com/glign/glign"
	"github.com/glign/glign/internal/oracle"
)

// golden memoizes the serial reference values of oracle.GoldenValues, so a
// query checked twice is evaluated once.
type golden struct {
	g    *glign.Graph
	memo map[string][]glign.Value
}

func newGolden(g *glign.Graph) *golden { return &golden{g: g, memo: map[string][]glign.Value{}} }

func (o *golden) values(q glign.Query) []glign.Value {
	key := q.String()
	if v, ok := o.memo[key]; ok {
		return v
	}
	v := oracle.GoldenValues(o.g, q)
	o.memo[key] = v
	return v
}

// check compares got with the reference values of q bit for bit.
func (o *golden) check(q glign.Query, got []glign.Value) error {
	if i := firstDiff(o.values(q), got); i >= 0 {
		return fmt.Errorf("%s disagrees with oracle.GoldenValues at vertex %d", q, i)
	}
	return nil
}

// firstDiff returns the first index where a and b differ bit for bit, -1
// when they are identical.
func firstDiff(a, b []glign.Value) int {
	if len(a) != len(b) {
		return 0
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return i
		}
	}
	return -1
}

// checkSample is how many queries of every evaluated buffer are checked
// against the oracle; successive reps rotate through the buffer.
const checkSample = 4

// checkReport checks checkSample queries of rep, starting at rotation r.
func checkReport(o *golden, buffer []glign.Query, rep *glign.Report, r int) []error {
	var errs []error
	stride := len(buffer) / checkSample
	for j := 0; j < checkSample; j++ {
		i := (r + j*stride) % len(buffer)
		if err := o.check(buffer[i], rep.Values(i)); err != nil {
			errs = append(errs, fmt.Errorf("query %d: %w", i, err))
		}
	}
	return errs
}

// batchLeg is the outcome of evaluating a buffer repeatedly.
type batchLeg struct {
	// qps, latP50 and cpuS hold one figure per rep: buffer size over wall
	// time, the median of Report.LatencySeconds over the buffer, and the
	// process CPU seconds the rep took.
	qps, latP50, cpuS []float64
	attempted, failed int
	errs              []error
}

// run evaluates buffer through rt.Run until budget has elapsed and at least
// minReps reps are done, appending to l. Checks run between reps, outside
// the timed calls.
func (l *batchLeg) run(rt *glign.Runtime, buffer []glign.Query, o *golden, budget time.Duration, minReps int) error {
	begin := time.Now()
	for r := 0; r < minReps || time.Since(begin) < budget; r++ {
		// Every rep starts from a collected heap, so the previous rep's
		// garbage neither costs it GC time nor adds to the peak RSS.
		runtime.GC()
		c0, t0 := cpuTime(), time.Now()
		rep, err := rt.Run(buffer)
		wall, cpu := time.Since(t0), cpuTime()-c0
		if err != nil {
			return fmt.Errorf("Runtime.Run: %w", err)
		}
		lat := make([]float64, len(buffer))
		for i := range lat {
			lat[i] = rep.LatencySeconds(i)
		}
		errs := checkReport(o, buffer, rep, len(l.qps))
		l.qps = append(l.qps, float64(len(buffer))/wall.Seconds())
		l.latP50 = append(l.latP50, median(lat))
		l.cpuS = append(l.cpuS, cpu.Seconds())
		l.attempted += len(buffer)
		l.failed += len(errs)
		l.errs = append(l.errs, errs...)
	}
	return nil
}

// cpuTime is the user plus system CPU time the process has used, over all
// its threads. Time the hypervisor steals from the VM is not in it.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}
