// Package queries is a kernelmono fixture: a miniature Values array plus a
// Kernel interface with one pure and one impure implementation (the package
// name is what puts it in the analyzer's scope).
package queries

import "sync/atomic"

// Value mirrors the real query value type.
type Value = float64

// Values mirrors the real CAS-protected cell array.
type Values struct{ bits []uint64 }

// NewValues allocates n cells (approved constructor).
func NewValues(n int) *Values { return &Values{bits: make([]uint64, n)} }

// Get atomically reads cell i (approved accessor).
func (v *Values) Get(i int) Value { return Value(atomic.LoadUint64(&v.bits[i])) }

// Set atomically stores cell i (approved accessor).
func (v *Values) Set(i int, x Value) { atomic.StoreUint64(&v.bits[i], uint64(x)) }

// ImproveMin CASes cell i downward (approved helper).
func (v *Values) ImproveMin(i int, cand Value) bool {
	for {
		old := atomic.LoadUint64(&v.bits[i])
		if Value(old) <= cand {
			return false
		}
		if atomic.CompareAndSwapUint64(&v.bits[i], old, uint64(cand)) {
			return true
		}
	}
}

// Poke writes a cell outside the approved helper set: true positive.
func Poke(v *Values, i int) { v.bits[i] = 0 }

// Peek reads a cell directly under a suppression: finding emitted but
// suppressed.
func Peek(v *Values, i int) uint64 {
	//lint:ignore glignlint/kernelmono fixture: read-only debug helper on a quiesced array
	return v.bits[i]
}

// Kernel mirrors the real kernel interface shape.
type Kernel interface {
	Identity() Value
	Relax(src Value, w float64) Value
	Better(a, b Value) bool
}

// good is a pure kernel: true negative (local state only).
type good struct{}

func (good) Identity() Value { return 0 }

func (good) Relax(src Value, w float64) Value {
	acc := struct{ v Value }{v: src}
	acc.v += Value(w)
	return acc.v
}

func (good) Better(a, b Value) bool { return a < b }

// bad is an impure kernel: its Relax hits all three purity violations.
var relaxCount int64

type bad struct {
	last Value
	vals *Values
}

func (b *bad) Identity() Value { return 0 }

func (b *bad) Relax(src Value, w float64) Value {
	atomic.AddInt64(&relaxCount, 1) // true positive: sync/atomic in a kernel
	b.last = src                    // true positive: non-local write
	b.vals.Set(0, src)              // true positive: Values mutation
	return src + w
}

func (b *bad) Better(a, c Value) bool { return a < c }

// sneaky hides its impurity behind a local pointer alias: true positive only
// with the alias-aware tier.
type sneaky struct{ last Value }

func (s *sneaky) Identity() Value { return 0 }

func (s *sneaky) Relax(src Value, w float64) Value {
	p := &s.last
	*p = src // true positive: write through an alias of receiver state
	return src + w
}

func (s *sneaky) Better(a, b Value) bool { return a < b }

// indirect delegates its side effect to a helper: true positive only with the
// call-graph purity tier.
type indirect struct{}

var tally int64

func bumpTally() { tally++ }

func (indirect) Identity() Value { return 0 }

func (indirect) Relax(src Value, w float64) Value {
	bumpTally() // true positive: calls an impure helper
	return src + w
}

func (indirect) Better(a, b Value) bool { return a < b }

// ConvergenceKernel mirrors the real iterate-to-convergence interface; its
// presence (together with Monotone below) arms the paradigm-classification
// tier.
type ConvergenceKernel interface {
	Kernel
	InitialValue(n, v int) Value
	Step(n int, self Value, nbrs []Value) Value
	Residual(old, next Value) float64
	Epsilon() float64
	MaxRounds() int
}

// Good and NewSneaky exercise the registry resolver's ident and
// constructor-call paths.
var Good Kernel = good{}

// NewSneaky constructs the alias-impure kernel.
func NewSneaky() Kernel { return &sneaky{} }

// Monotone mirrors the real monotone registry: every concrete Kernel type
// must resolve from here or implement ConvergenceKernel.
func Monotone() []Kernel {
	return []Kernel{
		Good,        // resolved through the var initializer
		&bad{},      // address-taken composite literal
		NewSneaky(), // resolved through the constructor's return
		indirect{},  // plain composite literal
		confused{},  // true positive: a ConvergenceKernel in the monotone registry
	}
}

// smooth is a pure convergence kernel: true negative for both the purity and
// the classification tiers.
type smooth struct{}

func (smooth) Identity() Value                  { return 0 }
func (smooth) Relax(src Value, w float64) Value { return src + w }
func (smooth) Better(a, b Value) bool           { return a < b }
func (smooth) InitialValue(n, v int) Value      { return Value(v) }
func (smooth) Residual(old, next Value) float64 { return next - old }
func (smooth) Epsilon() float64                 { return 0.5 }
func (smooth) MaxRounds() int                   { return 8 }

func (smooth) Step(n int, self Value, nbrs []Value) Value {
	s := self
	for _, x := range nbrs {
		if x < s {
			s = x
		}
	}
	return s
}

// rough is a convergence kernel whose Step mutates package state: true
// positive for the convergence-method purity tier.
var stepCount int64

type rough struct{}

func (rough) Identity() Value                  { return 0 }
func (rough) Relax(src Value, w float64) Value { return src + w }
func (rough) Better(a, b Value) bool           { return a < b }
func (rough) InitialValue(n, v int) Value      { return Value(v) }
func (rough) Residual(old, next Value) float64 { return next - old }
func (rough) Epsilon() float64                 { return 0.5 }
func (rough) MaxRounds() int                   { return 8 }

func (rough) Step(n int, self Value, nbrs []Value) Value {
	stepCount++ // true positive: non-local write inside a Jacobi step
	return self
}

// confused is a pure convergence kernel mislisted in Monotone(): the
// classification tier flags the registry entry, not the type.
type confused struct{}

func (confused) Identity() Value                         { return 0 }
func (confused) Relax(src Value, w float64) Value        { return src + w }
func (confused) Better(a, b Value) bool                  { return a < b }
func (confused) InitialValue(n, v int) Value             { return Value(v) }
func (confused) Step(n int, self Value, _ []Value) Value { return self }
func (confused) Residual(old, next Value) float64        { return next - old }
func (confused) Epsilon() float64                        { return 0.5 }
func (confused) MaxRounds() int                          { return 8 }

// stray implements Kernel but neither appears in Monotone() nor implements
// ConvergenceKernel: true positive for the classification tier.
type stray struct{}

func (stray) Identity() Value                  { return 0 }
func (stray) Relax(src Value, w float64) Value { return src + w }
func (stray) Better(a, b Value) bool           { return a < b }

// relaxLanesSSSP mirrors the real block kernel: it reads the bit array once
// and CASes every listed lane of the block at base (approved helper: true
// negative for the bits confinement tier).
func (v *Values) relaxLanesSSSP(base int, lanes []int32, src []Value, w float64) int {
	bits, improved := v.bits, 0
	for _, li := range lanes {
		addr, cand := &bits[base+int(li)], uint64(src[li]+w)
		for {
			old := atomic.LoadUint64(addr)
			if old <= cand {
				break
			}
			if atomic.CompareAndSwapUint64(addr, old, cand) {
				improved++
				break
			}
		}
	}
	return improved
}

// blocky is a convergence kernel (so it is classified) whose Relax installs
// values through a block kernel: true positive for the Values-mutation tier.
type blocky struct{ vals *Values }

func (b blocky) Identity() Value { return 0 }

func (b blocky) Relax(src Value, w float64) Value {
	b.vals.relaxLanesSSSP(0, []int32{0}, []Value{src}, w) // true positive: block kernel mutation
	return src + w
}

func (blocky) Better(a, c Value) bool                  { return a < c }
func (blocky) InitialValue(n, v int) Value             { return Value(v) }
func (blocky) Step(n int, self Value, _ []Value) Value { return self }
func (blocky) Residual(old, next Value) float64        { return next - old }
func (blocky) Epsilon() float64                        { return 0.5 }
func (blocky) MaxRounds() int                          { return 8 }
