package queries

import (
	"math"
	"math/rand"
	"sync"
	"testing"

	"github.com/glign/glign/internal/graph"
)

// builtinKernels pairs every built-in kind with its kernel.
var builtinKernels = []struct {
	kind OpKind
	k    Kernel
}{
	{OpBFS, BFS}, {OpSSSP, SSSP}, {OpSSWP, SSWP}, {OpSSNP, SSNP}, {OpViterbi, Viterbi},
}

// laneValue draws a cell value for kernel k: its identity, its source
// value, the other infinity, or one of a few small integers-and-fractions
// (so ties between candidates and destinations are frequent).
func laneValue(rng *rand.Rand, k Kernel) Value {
	switch rng.Intn(6) {
	case 0:
		return k.Identity()
	case 1:
		return k.SourceValue()
	case 2:
		return -k.Identity()
	}
	return Value(rng.Intn(8)) / 2
}

// randomLanes returns a random subset of [0,b) in ascending order, the
// shape collect builds.
func randomLanes(rng *rand.Rand, b int) []int32 {
	var lanes []int32
	for i := 0; i < b; i++ {
		if rng.Intn(3) > 0 {
			lanes = append(lanes, int32(i))
		}
	}
	return lanes
}

// relaxLanesReference is the per-lane loop the block kernels replace.
func relaxLanesReference(v *Values, kind OpKind, k Kernel, base int, lanes []int32, src []Value, w graph.Weight) int {
	improved := 0
	for _, li := range lanes {
		if RelaxImprove(v, kind, k, base+int(li), src[li], w) {
			improved++
		}
	}
	return improved
}

func cellBits(v *Values) []uint64 {
	out := make([]uint64, v.Len())
	for i := range out {
		out[i] = math.Float64bits(v.Get(i))
	}
	return out
}

func TestLaneRelaxerOf(t *testing.T) {
	if LaneRelaxerOf(OpCustom) != nil {
		t.Fatal("OpCustom has a block kernel; custom lanes must keep Kernel dispatch")
	}
	for _, bk := range builtinKernels {
		if LaneRelaxerOf(bk.kind) == nil {
			t.Fatalf("%s has no block kernel", bk.k.Name())
		}
	}
}

// TestLaneRelaxersMatchPerLaneRelax checks every block kernel against a
// per-lane RelaxImprove loop on random source snapshots, destination blocks
// (±Inf identities and ties included) and lane subsets: the resulting cells
// must be bit-identical and the improved counts equal.
func TestLaneRelaxersMatchPerLaneRelax(t *testing.T) {
	for _, bk := range builtinKernels {
		t.Run(bk.k.Name(), func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(bk.kind)))
			relax := LaneRelaxerOf(bk.kind)
			for trial := 0; trial < 2000; trial++ {
				b := 1 + rng.Intn(20)
				blocks := 1 + rng.Intn(3)
				got := NewValues(blocks*b, 0)
				for i := 0; i < got.Len(); i++ {
					got.Set(i, laneValue(rng, bk.k))
				}
				want := NewValues(got.Len(), 0)
				for i := 0; i < got.Len(); i++ {
					want.Set(i, got.Get(i))
				}
				base := rng.Intn(blocks) * b
				src := make([]Value, b)
				for i := range src {
					src[i] = laneValue(rng, bk.k)
					if rng.Intn(4) == 0 {
						// A source equal to its destination cell: SSWP and
						// SSNP then propose a tie whenever w does not bind.
						src[i] = got.Get(base + i)
					}
				}
				w := graph.Weight(1 + rng.Intn(4))
				lanes := randomLanes(rng, b)
				n := relax(got, base, lanes, src, w)
				m := relaxLanesReference(want, bk.kind, bk.k, base, lanes, src, w)
				if n != m {
					t.Fatalf("trial %d: block kernel improved %d cells, per-lane loop %d", trial, n, m)
				}
				gb, wb := cellBits(got), cellBits(want)
				for i := range gb {
					if gb[i] != wb[i] {
						t.Fatalf("trial %d: cell %d = %v, per-lane loop %v", trial, i, got.Get(i), want.Get(i))
					}
				}
			}
		})
	}
}

// TestLaneRelaxersTieWritesNothing installs each lane's own candidate first
// and relaxes again: a candidate equal to the cell is no improvement, so the
// block must be left bit-identical and the count zero.
func TestLaneRelaxersTieWritesNothing(t *testing.T) {
	const b = 8
	for _, bk := range builtinKernels {
		rng := rand.New(rand.NewSource(int64(bk.kind) + 100))
		relax := LaneRelaxerOf(bk.kind)
		v := NewValues(b, 0)
		src := make([]Value, b)
		lanes := make([]int32, b)
		w := graph.Weight(2)
		for i := range src {
			src[i] = laneValue(rng, bk.k)
			lanes[i] = int32(i)
			v.Set(i, bk.k.Relax(src[i], w))
		}
		before := cellBits(v)
		if n := relax(v, 0, lanes, src, w); n != 0 {
			t.Fatalf("%s: a tie improved %d cells", bk.k.Name(), n)
		}
		for i, bits := range cellBits(v) {
			if bits != before[i] {
				t.Fatalf("%s: a tie rewrote cell %d", bk.k.Name(), i)
			}
		}
	}
}

// TestLoadBlockSnapshotsContiguousCells checks LoadBlock reads exactly the
// len(dst) cells starting at base.
func TestLoadBlockSnapshotsContiguousCells(t *testing.T) {
	v := NewValues(12, 0)
	for i := 0; i < v.Len(); i++ {
		v.Set(i, Value(i))
	}
	dst := make([]Value, 4)
	v.LoadBlock(8, dst)
	for i, x := range dst {
		if x != Value(8+i) {
			t.Fatalf("dst[%d] = %v, want %v", i, x, Value(8+i))
		}
	}
}

// TestLaneRelaxersConcurrentBlock relaxes one shared block from several
// goroutines at once (run under -race in verify.sh). Whatever the
// interleaving, every cell must end at its lane's optimum over the initial
// value and all proposed candidates, and the improvements the goroutines
// report must sum to at most one per proposal.
func TestLaneRelaxersConcurrentBlock(t *testing.T) {
	const (
		b          = 16
		goroutines = 8
		rounds     = 200
	)
	for _, bk := range builtinKernels {
		t.Run(bk.k.Name(), func(t *testing.T) {
			relax := LaneRelaxerOf(bk.kind)
			shared := NewValues(2*b, bk.k.Identity())
			const base = b // the second block; the first must stay untouched
			lanes := make([]int32, b)
			for i := range lanes {
				lanes[i] = int32(i)
			}
			// Pre-draw every goroutine's proposals so the optimum is known.
			type proposal struct {
				src []Value
				w   graph.Weight
			}
			props := make([][]proposal, goroutines)
			best := make([]Value, b)
			for i := range best {
				best[i] = bk.k.Identity()
			}
			for g := range props {
				rng := rand.New(rand.NewSource(int64(g)*31 + int64(bk.kind)))
				props[g] = make([]proposal, rounds)
				for r := range props[g] {
					p := proposal{src: make([]Value, b), w: graph.Weight(1 + rng.Intn(5))}
					for i := range p.src {
						p.src[i] = Value(rng.Intn(50))
						if c := bk.k.Relax(p.src[i], p.w); bk.k.Better(c, best[i]) {
							best[i] = c
						}
					}
					props[g][r] = p
				}
			}
			var wg sync.WaitGroup
			counts := make([]int, goroutines)
			for g := 0; g < goroutines; g++ {
				wg.Add(1)
				go func(g int) {
					defer wg.Done()
					for _, p := range props[g] {
						counts[g] += relax(shared, base, lanes, p.src, p.w)
					}
				}(g)
			}
			wg.Wait()
			total := 0
			for _, c := range counts {
				total += c
			}
			if total < 1 || total > goroutines*rounds*b {
				t.Fatalf("improved count %d outside [1, %d]", total, goroutines*rounds*b)
			}
			for i := 0; i < b; i++ {
				if got := shared.Get(i); got != bk.k.Identity() {
					t.Fatalf("cell %d outside the block was written: %v", i, got)
				}
				if got := shared.Get(base + i); got != best[i] {
					t.Fatalf("lane %d ended at %v, optimum %v", i, got, best[i])
				}
			}
		})
	}
}
