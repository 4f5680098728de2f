package bench

// Golden engine fingerprints: exact per-component counters of every batch
// method on tiny inputs, pinned so that a refactor of the engines must
// reproduce them bit for bit. The shape tests next door only check who beats
// whom; these check the numbers themselves — the simulated LLC misses of a
// traced replay, and, for a single-worker untraced run of the whole buffer,
// the work counters and every per-iteration telemetry record.

import (
	"fmt"
	"hash/fnv"
	"testing"

	"github.com/glign/glign/internal/align"
	"github.com/glign/glign/internal/graph"
	"github.com/glign/glign/internal/systems"
	"github.com/glign/glign/internal/telemetry"
	"github.com/glign/glign/internal/workload"
)

// engineFingerprint is one (dataset, workload, method) cell. Records is the
// number of telemetry iteration records and RecordHash an FNV-64a digest of
// their batch-ordered contents (see recordDigest).
type engineFingerprint struct {
	Dataset, Workload, Method string
	Misses                    int64
	Iterations                int
	Edges, Relaxations        int64
	Writes                    int64
	Records                   int
	RecordHash                uint64
}

func (f engineFingerprint) String() string {
	return fmt.Sprintf("{%q, %q, %q, %d, %d, %d, %d, %d, %d, %#x},",
		f.Dataset, f.Workload, f.Method, f.Misses, f.Iterations,
		f.Edges, f.Relaxations, f.Writes, f.Records, f.RecordHash)
}

// recordDigest hashes every batch's query order, alignment vector and
// iteration records (everything but wall-clock durations).
func recordDigest(run *telemetry.RunMetrics) (int, uint64) {
	h := fnv.New64a()
	records := 0
	for _, b := range run.Batches {
		fmt.Fprintf(h, "batch %s %v %v\n", b.Engine, b.Queries, b.Alignment)
		for _, it := range b.Iterations {
			fmt.Fprintf(h, "%d %d %d %s %d %d %d %d %d\n", it.Iter, it.Query,
				it.FrontierSize, it.Mode, it.ActiveQueries, it.InjectedQueries,
				it.EdgesProcessed, it.LaneRelaxations, it.ValueWrites)
			records++
		}
	}
	return records, h.Sum64()
}

// goldenFingerprints was captured before the engines moved onto the shared
// iteration driver; it must never be regenerated to make a change pass.
var goldenFingerprints = []engineFingerprint{
	{"LJ", "BFS", "Ligra-S", 17434, 14, 170706, 170706, 12354, 87, 0x8bb1fce5ff6936be},
	{"LJ", "BFS", "Ligra-C", 25619, 14, 76584, 170706, 12354, 14, 0xd6b7235a13736cd9},
	{"LJ", "BFS", "GraphM", 55531, 14, 170706, 170706, 12354, 14, 0x93c54058736fc801},
	{"LJ", "BFS", "Krill", 27394, 14, 76584, 170706, 12354, 14, 0x4f2386e278922585},
	{"LJ", "BFS", "Glign-Intra", 18666, 11, 61036, 429254, 14989, 11, 0xd6aeb3d2b45b46e4},
	{"LJ", "BFS", "Glign-Inter", 12263, 12, 41419, 304636, 14681, 12, 0xa473442d06701aa3},
	{"LJ", "BFS", "Glign", 12263, 11, 29903, 228337, 14123, 11, 0x60369800dada23f4},
	{"LJ", "SSSP", "Ligra-S", 32492, 21, 351075, 351075, 37435, 130, 0x20634203c7856e65},
	{"LJ", "SSSP", "Ligra-C", 39106, 21, 110364, 351075, 37435, 21, 0x5fcc65cbd2d250e9},
	{"LJ", "SSSP", "GraphM", 108727, 21, 351075, 351075, 37435, 21, 0x97fed06cd485f12c},
	{"LJ", "SSSP", "Krill", 42782, 21, 110364, 351075, 37435, 21, 0x95e61b71f99da34d},
	{"LJ", "SSSP", "Glign-Intra", 26357, 16, 84270, 615126, 39766, 16, 0xc0f1908257a26483},
	{"LJ", "SSSP", "Glign-Inter", 19524, 21, 67899, 516476, 38941, 21, 0x535d3f242e9c5431},
	{"LJ", "SSSP", "Glign", 19524, 17, 69612, 546009, 37886, 17, 0xf8260967b91e1ff1},
	{"LJ", "Heter", "Ligra-S", 28139, 19, 308189, 308189, 31377, 112, 0xe65f98001420b871},
	{"LJ", "Heter", "Ligra-C", 36899, 19, 98294, 308189, 31377, 19, 0xdc80320469d44e5a},
	{"LJ", "Heter", "GraphM", 94042, 19, 308189, 308189, 31377, 19, 0x38a1732da102d364},
	{"LJ", "Heter", "Krill", 41638, 19, 98294, 308189, 31377, 19, 0x601e9d55132aa534},
	{"LJ", "Heter", "Glign-Intra", 26345, 16, 78993, 572910, 33720, 16, 0xabaf3784530b03f4},
	{"LJ", "Heter", "Glign-Inter", 19360, 17, 66560, 505764, 32756, 17, 0xcbfec1b6a098852d},
	{"LJ", "Heter", "Glign", 19360, 16, 64776, 507321, 32086, 16, 0xea2c66bc098f33ff},
	{"RD-CA", "BFS", "Ligra-S", 8441, 94, 61088, 61088, 16368, 635, 0x9976eb024442bae7},
	{"RD-CA", "BFS", "Ligra-C", 28738, 94, 53597, 61088, 16368, 94, 0x452eb599670eb080},
	{"RD-CA", "BFS", "GraphM", 36897, 94, 61088, 61088, 16368, 94, 0x705094d27b0f848c},
	{"RD-CA", "BFS", "Krill", 30016, 94, 53597, 61088, 16368, 94, 0x471cc55f68415a72},
	{"RD-CA", "BFS", "Glign-Intra", 19034, 81, 38532, 182325, 17320, 81, 0xf59ecdb608d078d7},
	{"RD-CA", "BFS", "Glign-Inter", 19315, 99, 36212, 164875, 16973, 99, 0xe90715a94018eee3},
	{"RD-CA", "BFS", "Glign", 19315, 99, 36212, 164875, 16973, 99, 0xe90715a94018eee3},
	{"RD-CA", "SSSP", "Ligra-S", 16445, 98, 119711, 119711, 40960, 690, 0x9395b1e7bf61800d},
	{"RD-CA", "SSSP", "Ligra-C", 39993, 98, 91946, 119711, 40960, 98, 0xcd4e00f6252a2c0e},
	{"RD-CA", "SSSP", "GraphM", 65749, 98, 119711, 119711, 40960, 98, 0x23abfbf1a508f364},
	{"RD-CA", "SSSP", "Krill", 40466, 98, 91946, 119711, 40960, 98, 0x1a78aac958db4fec},
	{"RD-CA", "SSSP", "Glign-Intra", 25237, 88, 71188, 405490, 48143, 88, 0xb88b757a5924f709},
	{"RD-CA", "SSSP", "Glign-Inter", 25442, 95, 65796, 353702, 42581, 95, 0xb257cf7ef6592121},
	{"RD-CA", "SSSP", "Glign", 25442, 95, 65796, 353702, 42581, 95, 0xb257cf7ef6592121},
	{"RD-CA", "Heter", "Ligra-S", 29478, 206, 167403, 167403, 51426, 995, 0x982227400db79cf1},
	{"RD-CA", "Heter", "Ligra-C", 57240, 206, 132014, 167403, 51426, 206, 0x53f68d2a3cfe8b89},
	{"RD-CA", "Heter", "GraphM", 92331, 206, 167403, 167403, 51426, 206, 0xfdb67361a81d1c31},
	{"RD-CA", "Heter", "Krill", 59038, 206, 132014, 167403, 51426, 206, 0x4fef3f6d1770665f},
	{"RD-CA", "Heter", "Glign-Intra", 39744, 179, 99668, 615956, 52891, 179, 0xa48e474e45afb9a},
	{"RD-CA", "Heter", "Glign-Inter", 39180, 187, 97358, 585343, 51014, 187, 0xe4074175aba96b5f},
	{"RD-CA", "Heter", "Glign", 39180, 187, 97358, 585343, 51014, 187, 0xe4074175aba96b5f},
}

func TestGoldenEngineFingerprints(t *testing.T) {
	cfg := DefaultConfig(true)
	cfg.BufferSize = 16
	cfg.BatchSize = 8
	cfg.Workers = 1
	golden := map[string]engineFingerprint{}
	for _, f := range goldenFingerprints {
		golden[f.Dataset+"/"+f.Workload+"/"+f.Method] = f
	}
	methods := []string{systems.LigraS, systems.LigraC, systems.GraphM, systems.Krill,
		systems.GlignIntra, systems.GlignInter, systems.Glign}
	for _, d := range []graph.Dataset{graph.LJ, graph.RDCA} {
		// A private environment: the shared envs cache keys on dataset and
		// seed only, so its sources depend on which test built it first.
		g := graph.MustGenerate(d, cfg.Size)
		prof := align.NewProfile(g, align.DefaultHubCount, 1)
		e := &env{g: g, prof: prof, sources: workload.Sources(g, prof, cfg.BufferSize, cfg.Seed)}
		for _, wl := range []string{"BFS", "SSSP", "Heter"} {
			buf, err := bufferFor(e, wl, cfg)
			if err != nil {
				t.Fatal(err)
			}
			for _, m := range methods {
				misses, err := measureLLC(m, e, buf, cfg)
				if err != nil {
					t.Fatalf("%s/%s/%s traced: %v", d, wl, m, err)
				}
				res, err := systems.Run(m, g, buf, systems.Config{
					BatchSize: cfg.BatchSize,
					Workers:   1,
					Profile:   prof,
					Telemetry: telemetry.NewCollector(),
				})
				if err != nil {
					t.Fatalf("%s/%s/%s: %v", d, wl, m, err)
				}
				got := engineFingerprint{
					Dataset: string(d), Workload: wl, Method: m,
					Misses:      misses,
					Iterations:  res.TotalIterations,
					Edges:       res.EdgesProcessed,
					Relaxations: res.LaneRelaxations,
					Writes:      res.ValueWrites,
				}
				got.Records, got.RecordHash = recordDigest(res.Telemetry.Snapshot())
				want, ok := golden[string(d)+"/"+wl+"/"+m]
				if !ok {
					t.Errorf("no golden fingerprint; measured\n\t%v", got)
					continue
				}
				if got != want {
					t.Errorf("fingerprint drifted:\n\tgot  %v\n\twant %v", got, want)
				}
			}
		}
	}
}
