package glign

import (
	"os"
	"testing"

	"github.com/glign/glign/internal/align"
	"github.com/glign/glign/internal/graph"
	"github.com/glign/glign/internal/oracle"
	"github.com/glign/glign/internal/par"
	"github.com/glign/glign/internal/queries"
	"github.com/glign/glign/internal/systems"
)

// TestOracleHarness is the benchmark-validity oracle leg of the top-level
// harness: before any performance number is trusted, every kernel's results
// on every graph family must satisfy the kernel's first-principles
// invariants (internal/oracle), and the generated datasets themselves must
// pass structural and distributional sanity checks. Unlike the differential
// tests, which compare two implementations that could share a bug, the
// oracle checks properties a correct result must have regardless of how it
// was computed.
//
// The sweep covers every kernel — monotone and iterate-to-convergence —
// through one aligned engine (Glign) and one sequential baseline (Ligra-S),
// and archives the full outcome as results/oracle-report.json when
// GLIGN_ORACLE_OUT is set (verify.sh fails the build on any violation).
func TestOracleHarness(t *testing.T) {
	pool := par.NewPool(4)
	defer pool.Close()
	rep := oracle.NewReport()
	base := diffBaseSeed(t)

	graphsUnderTest := []struct {
		name      string
		g         *graph.Graph
		smoke     func(*graph.Graph) error
		smokeName string
	}{
		{"rmat-LJ", graph.MustGenerate(graph.LJ, graph.Tiny), oracle.SmokeRMAT, "smoke-rmat"},
		{"road-CA", graph.MustGenerate(graph.RDCA, graph.Tiny), oracle.SmokeRoad, "smoke-road"},
	}

	// Dataset leg: structural CSR sanity plus the per-family distribution
	// smoke check.
	for _, gc := range graphsUnderTest {
		gr := oracle.GraphReport{Graph: gc.name, Checks: []string{"check-graph", gc.smokeName}}
		if err := oracle.CheckGraph(gc.g); err != nil {
			gr.Violations = append(gr.Violations, oracle.Violation{Invariant: "check-graph", Detail: err.Error()})
		}
		if err := gc.smoke(gc.g); err != nil {
			gr.Violations = append(gr.Violations, oracle.Violation{Invariant: gc.smokeName, Detail: err.Error()})
		}
		rep.Graphs = append(rep.Graphs, gr)
	}

	kernels := queries.Monotone()
	for _, ck := range queries.Convergent() {
		kernels = append(kernels, ck)
	}
	methods := []string{systems.Glign, systems.LigraS}

	for _, gc := range graphsUnderTest {
		prof := align.NewProfile(gc.g, align.DefaultHubCount, 0)
		for _, k := range kernels {
			for _, method := range methods {
				seed := caseSeed(base, "oracle/"+gc.name+"/"+k.Name()+"/"+method)
				srcs := sampleSources(seed, gc.g.NumVertices(), diffBatchSize)
				buffer := make([]queries.Query, len(srcs))
				for i, s := range srcs {
					buffer[i] = queries.Query{Kernel: k, Source: s}
				}
				res, err := systems.Run(method, gc.g, buffer, systems.Config{
					BatchSize:  diffBatchSize,
					Workers:    2,
					Pool:       pool,
					Profile:    prof,
					KeepValues: true,
				})
				if err != nil {
					t.Fatalf("run failed: %v [case seed %d, %s]",
						err, seed, repro(base, gc.name, k.Name(), method, 2))
				}
				invs := oracle.InvariantNames(oracle.ForKernel(k))
				for qi, q := range buffer {
					rep.Cases = append(rep.Cases, oracle.CaseReport{
						Graph:      gc.name,
						Method:     method,
						Query:      q.String(),
						Invariants: invs,
						Violations: oracle.CheckResult(gc.g, q, res.Values(qi)),
					})
				}
			}
		}
	}
	rep.Finalize()

	// Archive before asserting, so a violating run still leaves the report
	// behind for inspection.
	if out := os.Getenv("GLIGN_ORACLE_OUT"); out != "" {
		if err := rep.WriteFile(out); err != nil {
			t.Fatalf("write %s: %v", out, err)
		}
	}

	for _, gr := range rep.Graphs {
		for _, v := range gr.Violations {
			t.Errorf("dataset %s failed %s: %s", gr.Graph, v.Invariant, v.Detail)
		}
	}
	for _, cr := range rep.Cases {
		for _, v := range cr.Violations {
			t.Errorf("%s via %s on %s violates %s: %s [%s]",
				cr.Query, cr.Method, cr.Graph, v.Invariant, v.Detail,
				repro(base, cr.Graph, cr.Query, cr.Method, 2))
		}
	}
	if rep.TotalViolations != 0 {
		t.Fatalf("oracle harness recorded %d violations across %d cases", rep.TotalViolations, len(rep.Cases))
	}
}
