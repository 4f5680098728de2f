package frontier

import (
	"math/bits"
	"math/rand"
	"testing"
	"testing/quick"

	"github.com/glign/glign/internal/graph"
)

// Shared generator helper for the property tests below: genSubset draws a
// random subset of [0, n) with the given number of insertion attempts
// (duplicates allowed, as in real frontier construction) and returns both
// the Subset and an independent reference member map. Deterministic in rng.
func genSubset(rng *rand.Rand, n, adds int) (*Subset, map[graph.VertexID]bool) {
	s := New(n)
	ref := make(map[graph.VertexID]bool, adds)
	for i := 0; i < adds; i++ {
		v := graph.VertexID(rng.Intn(n))
		s.Add(v)
		ref[v] = true
	}
	return s, ref
}

// quickCfg returns the quick.Check config the frontier properties share: a
// seeded source so failures replay, and enough rounds to cover word
// boundaries and empty/full corners.
func quickCfg(seed int64, rounds int) *quick.Config {
	return &quick.Config{
		MaxCount: rounds,
		Rand:     rand.New(rand.NewSource(seed)),
	}
}

// Property: sparse -> dense -> sparse round-trips exactly. Building a
// Subset from any vertex list and materializing it back yields the sorted
// deduplicated list, and rebuilding from that list yields an equal bitmap.
func TestQuickSparseDenseRoundTrip(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 64 + rng.Intn(1<<12)
		s, ref := genSubset(rng, n, rng.Intn(2*n))
		sp := s.Sparse(nil, 0)
		if len(sp) != len(ref) || s.Count() != len(ref) {
			return false
		}
		for i, v := range sp {
			if !ref[v] {
				return false
			}
			if i > 0 && sp[i-1] >= v {
				return false // sorted, strictly increasing
			}
		}
		back := FromVertices(n, sp...)
		if back.Count() != s.Count() {
			return false
		}
		for i, w := range back.Words() {
			if w != s.Words()[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, quickCfg(1, 150)); err != nil {
		t.Fatal(err)
	}
}

// The parallel materialization path (bitmaps of >= sparseParWords words
// with >= sparseParCount members) must produce exactly the serial result.
// This drives the pool through Sparse with dense, sparse-tail and clustered
// membership shapes.
func TestSparseParallelMatchesSerial(t *testing.T) {
	const n = sparseParWords * 64 * 2 // twice the parallel threshold in words
	shapes := map[string]func(rng *rand.Rand) *Subset{
		"uniform": func(rng *rand.Rand) *Subset {
			s := New(n)
			for i := 0; i < 3*sparseParCount; i++ {
				s.Add(graph.VertexID(rng.Intn(n)))
			}
			return s
		},
		"clustered": func(rng *rand.Rand) *Subset {
			s := New(n)
			for c := 0; c < 8; c++ {
				base := rng.Intn(n - 1024)
				for i := 0; i < 1024; i++ {
					s.Add(graph.VertexID(base + i))
				}
			}
			return s
		},
		"block-edges": func(rng *rand.Rand) *Subset {
			// Members hugging every parallel-block boundary, the off-by-one
			// hot spot of the count/prefix/fill passes.
			s := New(n)
			for w := 0; w < n/64; w += sparseBlockWords {
				s.Add(graph.VertexID(w * 64))
				if w > 0 {
					s.Add(graph.VertexID(w*64 - 1))
				}
			}
			for i := 0; s.Count() < sparseParCount; i++ {
				s.Add(graph.VertexID(rng.Intn(n)))
			}
			return s
		},
	}
	for name, build := range shapes {
		t.Run(name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(7))
			s := build(rng)
			if s.Count() < sparseParCount {
				t.Fatalf("shape %s produced %d members, below the parallel gate", name, s.Count())
			}
			got := s.Sparse(nil, 0)
			// Serial reconstruction straight from the bitmap.
			var want []graph.VertexID
			for wi, w := range s.Words() {
				for w != 0 {
					b := bits.TrailingZeros64(w)
					want = append(want, graph.VertexID(wi*64+b))
					w &^= 1 << b
				}
			}
			if len(got) != len(want) {
				t.Fatalf("parallel sparse has %d members, serial %d", len(got), len(want))
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("parallel sparse[%d] = %d, serial = %d", i, got[i], want[i])
				}
			}
		})
	}
}

// Property: Clone is fully independent — mutating either side never shows
// through the other, and the clone preserves membership and count.
func TestQuickCloneIndependence(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 64 + rng.Intn(1<<10)
		s, ref := genSubset(rng, n, rng.Intn(n))
		c := s.Clone()
		if c.Count() != s.Count() {
			return false
		}
		for v := range ref {
			if !c.Contains(v) {
				return false
			}
		}
		// Mutate both sides disjointly; neither mutation may leak across.
		var addedToS, addedToC graph.VertexID
		addedToS = graph.VertexID(rng.Intn(n))
		for {
			addedToC = graph.VertexID(rng.Intn(n))
			if addedToC != addedToS {
				break
			}
		}
		sHadC := s.Contains(addedToC)
		cHadS := c.Contains(addedToS)
		s.Add(addedToS)
		c.Add(addedToC)
		if !s.Contains(addedToS) || !c.Contains(addedToC) {
			return false
		}
		if s.Contains(addedToC) != sHadC || c.Contains(addedToS) != cHadS {
			return false
		}
		// Clearing the original must leave the clone intact.
		snapshot := c.Count()
		s.Clear()
		return c.Count() == snapshot && s.Count() == 0
	}
	if err := quick.Check(f, quickCfg(2, 150)); err != nil {
		t.Fatal(err)
	}
}

// Property: subset union/intersection laws. UnionWith is idempotent and
// commutative in effect, and inclusion-exclusion holds:
// |A ∪ B| = |A| + |B| - |A ∩ B|.
func TestQuickUnionIntersectionLaws(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 64 + rng.Intn(1<<10)
		a, _ := genSubset(rng, n, rng.Intn(n))
		b, _ := genSubset(rng, n, rng.Intn(n))
		inter := a.OverlapCount(b)
		if inter != b.OverlapCount(a) {
			return false // intersection is symmetric
		}
		ab := a.Clone()
		ab.UnionWith(b)
		ba := b.Clone()
		ba.UnionWith(a)
		if ab.Count() != ba.Count() {
			return false // union is commutative (in cardinality and members)
		}
		for i, w := range ab.Words() {
			if w != ba.Words()[i] {
				return false
			}
		}
		if ab.Count() != a.Count()+b.Count()-inter {
			return false // inclusion-exclusion
		}
		again := ab.Clone()
		again.UnionWith(b)
		if again.Count() != ab.Count() {
			return false // idempotent
		}
		// The union must contain exactly the members of both sides.
		if ab.OverlapCount(a) != a.Count() || ab.OverlapCount(b) != b.Count() {
			return false
		}
		return true
	}
	if err := quick.Check(f, quickCfg(3, 150)); err != nil {
		t.Fatal(err)
	}
}

// unionOfReference is the bit-by-bit oracle for UnionOf: per-vertex
// membership tests, no word-level tricks.
func unionOfReference(parts ...*Subset) (map[graph.VertexID]bool, int) {
	ref := make(map[graph.VertexID]bool)
	n := parts[0].Universe()
	for v := 0; v < n; v++ {
		for _, p := range parts {
			if p.Contains(graph.VertexID(v)) {
				ref[graph.VertexID(v)] = true
				break
			}
		}
	}
	return ref, len(ref)
}

// TestUnionOfWordBoundaries pins the word-level union and popcount at the
// exact universe sizes where word arithmetic goes wrong: one bit short of a
// word (63), a full word (64), one bit into the second word (65), and
// non-multiple-of-64 tails. Every lane-count and membership corner is checked
// against the bit-by-bit reference.
func TestUnionOfWordBoundaries(t *testing.T) {
	universes := []int{1, 63, 64, 65, 127, 128, 129, 191, 1000}
	laneCounts := []int{1, 2, 8, 16}
	rng := rand.New(rand.NewSource(0x91159))
	for _, n := range universes {
		for _, lanes := range laneCounts {
			parts := make([]*Subset, lanes)
			for i := range parts {
				parts[i] = New(n)
				// Sprinkle members with bias toward word edges and the tail.
				for k := 0; k < 1+rng.Intn(n); k++ {
					parts[i].Add(graph.VertexID(rng.Intn(n)))
				}
				for _, edge := range []int{0, 62, 63, 64, n - 2, n - 1} {
					if edge >= 0 && edge < n && rng.Intn(2) == 0 {
						parts[i].Add(graph.VertexID(edge))
					}
				}
			}
			// A stale destination: members and a cached sparse view the
			// union must overwrite.
			u := FromVertices(n, 0, graph.VertexID(n-1))
			u.Sparse(nil, 0)
			u.UnionOf(nil, 2, parts...)
			ref, count := unionOfReference(parts...)
			if u.Count() != count {
				t.Fatalf("n=%d lanes=%d: UnionOf count %d, reference %d", n, lanes, u.Count(), count)
			}
			for v := 0; v < n; v++ {
				if u.Contains(graph.VertexID(v)) != ref[graph.VertexID(v)] {
					t.Fatalf("n=%d lanes=%d: vertex %d membership diverges from reference", n, lanes, v)
				}
			}
			// The tail bits beyond n must stay zero (no phantom members).
			if tail := n % 64; tail != 0 {
				last := u.Words()[len(u.Words())-1]
				if last>>tail != 0 {
					t.Fatalf("n=%d lanes=%d: union set bits beyond the universe: %064b", n, lanes, last)
				}
			}
			// Sparse materialization agrees with Count (exercises the cached
			// sparse path after a word-level build).
			if len(u.Sparse(nil, 0)) != count {
				t.Fatalf("n=%d lanes=%d: Sparse has %d members, Count says %d", n, lanes, len(u.Sparse(nil, 0)), count)
			}
		}
	}
}

// Property: UnionOf equals the result of folding UnionWith (the serial
// word-level path already pinned by TestQuickUnionIntersectionLaws), and is
// invariant under lane order.
func TestQuickUnionOfMatchesFold(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(1<<10)
		lanes := 1 + rng.Intn(16)
		parts := make([]*Subset, lanes)
		for i := range parts {
			parts[i], _ = genSubset(rng, n, rng.Intn(n+1))
		}
		got := New(n)
		got.UnionOf(nil, 1+rng.Intn(4), parts...)
		want := New(n)
		for _, p := range parts {
			want.UnionWith(p)
		}
		if got.Count() != want.Count() {
			return false
		}
		for i, w := range got.Words() {
			if w != want.Words()[i] {
				return false
			}
		}
		// Lane order must not matter.
		rev := make([]*Subset, lanes)
		for i := range rev {
			rev[i] = parts[lanes-1-i]
		}
		again := New(n)
		again.UnionOf(nil, 1, rev...)
		if again.Count() != got.Count() {
			return false
		}
		for i, w := range again.Words() {
			if w != got.Words()[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, quickCfg(5, 150)); err != nil {
		t.Fatal(err)
	}
}

// Property: per-vertex query-mask laws. A mask built from the union of two
// assignment sets equals the bitwise OR of the individual masks at every
// vertex, and intersection popcounts match the reference.
func TestQuickQueryMaskUnionIntersection(t *testing.T) {
	type assign struct {
		v graph.VertexID
		q int
	}
	gen := func(rng *rand.Rand, n, count int) []assign {
		out := make([]assign, count)
		for i := range out {
			out[i] = assign{graph.VertexID(rng.Intn(n)), rng.Intn(MaxQueries)}
		}
		return out
	}
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 16 + rng.Intn(512)
		as := gen(rng, n, rng.Intn(4*n))
		bs := gen(rng, n, rng.Intn(4*n))
		ma, mb, mu := NewQueryMask(n), NewQueryMask(n), NewQueryMask(n)
		for _, x := range as {
			ma.Set(x.v, x.q)
			mu.Set(x.v, x.q)
		}
		for _, x := range bs {
			mb.Set(x.v, x.q)
			mu.Set(x.v, x.q)
		}
		activeUnion, activeInter := 0, 0
		for v := 0; v < n; v++ {
			va, vb := ma.Get(graph.VertexID(v)), mb.Get(graph.VertexID(v))
			if mu.Get(graph.VertexID(v)) != va|vb {
				return false // union mask is the bitwise OR
			}
			if va|vb != 0 {
				activeUnion++
			}
			if va&vb != 0 {
				activeInter++
			}
		}
		if mu.ActiveVertices() != activeUnion {
			return false
		}
		if activeInter > ma.ActiveVertices() || activeInter > mb.ActiveVertices() {
			return false // |A ∩ B| <= min(|A|, |B|) on active-vertex sets
		}
		return true
	}
	if err := quick.Check(f, quickCfg(4, 120)); err != nil {
		t.Fatal(err)
	}
}
