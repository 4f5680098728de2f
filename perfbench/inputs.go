package main

import (
	"fmt"
	"math/rand"
	"time"

	"github.com/glign/glign"
	"github.com/glign/glign/internal/workload"
)

// mix names a kernel mix; pick draws one kernel of it.
type mix string

const (
	// heterMix is the paper's Heter set: BFS, SSSP, SSWP, SSNP uniformly.
	heterMix mix = "heter"
	// roadMix is SSSP and KHOP3: an unbounded and a depth-bounded
	// traversal, the second being one delayed start cannot help.
	roadMix mix = "sssp+khop3"
)

// kernels lists the mix's kernels, each drawn with equal probability.
func (m mix) kernels() []glign.Kernel {
	if m == roadMix {
		return []glign.Kernel{glign.SSSP, glign.KHop(3)}
	}
	return []glign.Kernel{glign.BFS, glign.SSSP, glign.SSWP, glign.SSNP}
}

// pick draws one kernel of the mix.
func (m mix) pick(rng *rand.Rand) glign.Kernel {
	ks := m.kernels()
	return ks[rng.Intn(len(ks))]
}

// balanced returns n kernels holding every kernel of the mix equally often
// (up to rounding), in a seeded random order. A buffer's work then varies
// with its sources, not with how many expensive kernels a draw happened to
// pick: on the road mix, SSSP costs far more than KHOP3.
func (m mix) balanced(n int, rng *rand.Rand) []glign.Kernel {
	ks := m.kernels()
	out := make([]glign.Kernel, n)
	for i := range out {
		out[i] = ks[i%len(ks)]
	}
	rng.Shuffle(n, func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}

// batchSpec is the buffer a workload evaluates through Runtime.Run.
type batchSpec struct {
	dataset, size string
	queries       int
	mix           mix
}

// serveSpec is the open-loop traffic a workload sends to glign.Serve.
type serveSpec struct {
	dataset, size string
	mix           mix
}

// The serving traffic every workload sends.
const (
	// serveRate is the Poisson arrival rate in queries per second, below
	// the knee the traced sweep measures.
	serveRate = 100
	// sourcePool is the number of hop-bin sampled sources the Zipf draw
	// indexes; zipfS is its exponent, so popular sources repeat and the
	// result cache and dedup see real reuse.
	sourcePool = 4096
	zipfS      = 1.1
	// epochBump is the interval of BumpEpoch calls, the write side that
	// invalidates the cache.
	epochBump = time.Second
	// slo is the latency limit of serve_slo_share.
	slo = 100 * time.Millisecond
	// serveShare is the serving leg's share of --seconds.
	serveShare = 0.55
)

// spec is one workload: every run measures both entry points, the batch
// buffer and the live server.
type spec struct {
	name  string
	batch batchSpec
	serve serveSpec
}

// workloads is the benchmark's fixed workload table (README.md says why
// each exists). Every workload also carries a serving leg: the Zipf
// traffic on the small graph of its family.
var workloads = []spec{
	{
		name:  "batch-social",
		batch: batchSpec{dataset: "LJ", size: "medium", queries: 256, mix: heterMix},
		serve: serveSpec{dataset: "LJ", size: "small", mix: heterMix},
	},
	{
		name:  "batch-road",
		batch: batchSpec{dataset: "RD-CA", size: "medium", queries: 128, mix: roadMix},
		serve: serveSpec{dataset: "RD-CA", size: "small", mix: roadMix},
	},
}

func specByName(name string) (spec, error) {
	for _, s := range workloads {
		if s.name == name {
			return s, nil
		}
	}
	var names []string
	for _, s := range workloads {
		names = append(names, s.name)
	}
	return spec{}, fmt.Errorf("unknown workload %q (have %v)", name, names)
}

// Each input stream draws from its own generator, derived from the run
// seed, so changing one stream's length never shifts another's draws.
const (
	streamBatchSources int64 = iota + 1
	streamBatchKernels
	streamServePool
	streamServeArrivals
)

func streamSeed(seed, stream int64) int64 { return seed*1_000_003 + stream }

// batchBuffer builds the workload's buffer: hop-bin sampled sources
// (workload.Sources) with a balanced, seeded order of the mix's kernels.
func batchBuffer(b batchSpec, g *glign.Graph, prof *glign.AlignmentProfile, seed int64) []glign.Query {
	src := workload.Sources(g, prof, b.queries, streamSeed(seed, streamBatchSources))
	ks := b.mix.balanced(len(src), rand.New(rand.NewSource(streamSeed(seed, streamBatchKernels))))
	buf := make([]glign.Query, len(src))
	for i, s := range src {
		buf[i] = glign.Query{Kernel: ks[i], Source: s}
	}
	return buf
}

// arrival is one query of the open-loop schedule, due at offset at.
type arrival struct {
	at time.Duration
	q  glign.Query
}

// serveSchedule builds n arrivals: Poisson gaps at rate queries per second,
// sources drawn Zipf(zipfS) over a hop-bin sampled pool, kernels from the
// mix.
func serveSchedule(s serveSpec, g *glign.Graph, prof *glign.AlignmentProfile, rate float64, n int, seed int64) []arrival {
	pool := workload.Sources(g, prof, sourcePool, streamSeed(seed, streamServePool))
	rng := rand.New(rand.NewSource(streamSeed(seed, streamServeArrivals)))
	zipf := rand.NewZipf(rng, zipfS, 1, uint64(len(pool)-1))
	out := make([]arrival, n)
	var at time.Duration
	for i := range out {
		at += time.Duration(rng.ExpFloat64() / rate * float64(time.Second))
		k := s.mix.pick(rng)
		out[i] = arrival{at: at, q: glign.Query{Kernel: k, Source: pool[zipf.Uint64()]}}
	}
	return out
}

// rebased shifts part's offsets so the session starts at origin: the first
// arrival keeps its gap to the arrival before it.
func rebased(part []arrival, origin time.Duration) []arrival {
	out := make([]arrival, len(part))
	for i, a := range part {
		out[i] = arrival{at: a.at - origin, q: a.q}
	}
	return out
}
