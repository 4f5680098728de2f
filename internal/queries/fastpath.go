package queries

import (
	"math"
	"sync/atomic"

	"github.com/glign/glign/internal/graph"
)

// OpKind identifies a built-in kernel so engines can run fused, direct
// relaxation loops instead of paying two indirect calls (Kernel.Relax plus
// the Better comparator) per edge and lane — the dominant cost of batch
// evaluation once frontiers are bitmap-cheap.
type OpKind uint8

// Kinds of the built-in kernels. OpCustom falls back to the Kernel
// interface, so user-defined kernels keep working, just without the fused
// path.
const (
	OpCustom OpKind = iota
	OpBFS
	OpSSSP
	OpSSWP
	OpSSNP
	OpViterbi
)

// KindOf classifies a kernel.
func KindOf(k Kernel) OpKind {
	switch k.(type) {
	case bfs:
		return OpBFS
	case sssp:
		return OpSSSP
	case sswp:
		return OpSSWP
	case ssnp:
		return OpSSNP
	case viterbi:
		return OpViterbi
	}
	return OpCustom
}

// KindsOf classifies every kernel of a batch.
func KindsOf(kernels []Kernel) []OpKind {
	kinds := make([]OpKind, len(kernels))
	for i, k := range kernels {
		kinds[i] = KindOf(k)
	}
	return kinds
}

// ImproveMin installs cand into cell i iff cand < current (atomic, lock
// free). It is Improve specialized to minimizing kernels.
func (v *Values) ImproveMin(i int, cand Value) bool { return casMin(&v.bits[i], cand) }

// ImproveMax installs cand into cell i iff cand > current.
func (v *Values) ImproveMax(i int, cand Value) bool { return casMax(&v.bits[i], cand) }

// casMin is the one CAS-if-better loop of the minimizing kernels: it
// installs cand into *addr iff cand < current, retrying on contention, and
// reports whether it performed an update.
func casMin(addr *uint64, cand Value) bool {
	candBits := math.Float64bits(cand)
	for {
		oldBits := atomic.LoadUint64(addr)
		if cand >= math.Float64frombits(oldBits) {
			return false
		}
		if atomic.CompareAndSwapUint64(addr, oldBits, candBits) {
			return true
		}
	}
}

// casMax is casMin for maximizing kernels: it installs cand iff cand >
// current.
func casMax(addr *uint64, cand Value) bool {
	candBits := math.Float64bits(cand)
	for {
		oldBits := atomic.LoadUint64(addr)
		if cand <= math.Float64frombits(oldBits) {
			return false
		}
		if atomic.CompareAndSwapUint64(addr, oldBits, candBits) {
			return true
		}
	}
}

// LoadBlock snapshots the len(dst) contiguous cells starting at base into
// dst with atomic loads: one vertex's whole lane block in the interleaved
// ValArray[v*B+i] layout of paper §3.5.
func (v *Values) LoadBlock(base int, dst []Value) {
	blk := v.bits[base : base+len(dst)]
	for i := range dst {
		dst[i] = math.Float64frombits(atomic.LoadUint64(&blk[i]))
	}
}

// LaneRelaxer relaxes one edge of weight w for a list of lanes of one
// built-in kernel: lane li proposes a value computed from src[li] (the
// source vertex's snapshot, see LoadBlock) and installs it into cell
// base+li iff it is better, through the same CAS loop as ImproveMin /
// ImproveMax. It returns the number of improved cells. The cell index
// base+li assumes the interleaved layout, where lane li of a vertex block
// sits li cells past the block base.
type LaneRelaxer func(v *Values, base int, lanes []int32, src []Value, w graph.Weight) int

// LaneRelaxerOf returns the block kernel of a built-in kind, or nil for
// OpCustom (whose lanes relax through the Kernel interface).
func LaneRelaxerOf(kind OpKind) LaneRelaxer {
	switch kind {
	case OpBFS:
		return (*Values).relaxLanesBFS
	case OpSSSP:
		return (*Values).relaxLanesSSSP
	case OpSSWP:
		return (*Values).relaxLanesSSWP
	case OpSSNP:
		return (*Values).relaxLanesSSNP
	case OpViterbi:
		return (*Values).relaxLanesViterbi
	}
	return nil
}

// relaxLanesBFS is the BFS LaneRelaxer: level(d) = min(level(d), level(s)+1).
// The bit array is read once per call, not once per lane.
func (v *Values) relaxLanesBFS(base int, lanes []int32, src []Value, _ graph.Weight) int {
	bits, improved := v.bits, 0
	for _, li := range lanes {
		if casMin(&bits[base+int(li)], src[li]+1) {
			improved++
		}
	}
	return improved
}

// relaxLanesSSSP is the SSSP LaneRelaxer: dist(d) = min(dist(d), dist(s)+w).
func (v *Values) relaxLanesSSSP(base int, lanes []int32, src []Value, w graph.Weight) int {
	bits, wv, improved := v.bits, Value(w), 0
	for _, li := range lanes {
		if casMin(&bits[base+int(li)], src[li]+wv) {
			improved++
		}
	}
	return improved
}

// relaxLanesSSWP is the SSWP LaneRelaxer: wide(d) = max(wide(d),
// min(wide(s), w)).
func (v *Values) relaxLanesSSWP(base int, lanes []int32, src []Value, w graph.Weight) int {
	bits, wv, improved := v.bits, Value(w), 0
	for _, li := range lanes {
		cand := wv
		if src[li] < cand {
			cand = src[li]
		}
		if casMax(&bits[base+int(li)], cand) {
			improved++
		}
	}
	return improved
}

// relaxLanesSSNP is the SSNP LaneRelaxer: narrow(d) = min(narrow(d),
// max(narrow(s), w)).
func (v *Values) relaxLanesSSNP(base int, lanes []int32, src []Value, w graph.Weight) int {
	bits, wv, improved := v.bits, Value(w), 0
	for _, li := range lanes {
		cand := wv
		if src[li] > cand {
			cand = src[li]
		}
		if casMin(&bits[base+int(li)], cand) {
			improved++
		}
	}
	return improved
}

// relaxLanesViterbi is the Viterbi LaneRelaxer: viterbi(d) =
// max(viterbi(d), viterbi(s)/w).
func (v *Values) relaxLanesViterbi(base int, lanes []int32, src []Value, w graph.Weight) int {
	bits, wv, improved := v.bits, Value(w), 0
	for _, li := range lanes {
		if casMax(&bits[base+int(li)], src[li]/wv) {
			improved++
		}
	}
	return improved
}

// RelaxImprove performs one relaxation of the edge (·->dst, weight w) whose
// source currently holds src, against cell i of v, using the fused path for
// built-in kernels and the Kernel interface otherwise. It reports whether
// the destination improved. kind must be KindOf(k).
func RelaxImprove(v *Values, kind OpKind, k Kernel, i int, src Value, w graph.Weight) bool {
	switch kind {
	case OpBFS:
		return v.ImproveMin(i, src+1)
	case OpSSSP:
		return v.ImproveMin(i, src+Value(w))
	case OpSSWP:
		cand := Value(w)
		if src < cand {
			cand = src
		}
		return v.ImproveMax(i, cand)
	case OpSSNP:
		cand := Value(w)
		if src > cand {
			cand = src
		}
		return v.ImproveMin(i, cand)
	case OpViterbi:
		return v.ImproveMax(i, src/Value(w))
	}
	return v.Improve(i, k.Relax(src, w), k.Better)
}
