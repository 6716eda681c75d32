// Package memsize estimates the deep (retained) size of in-memory data
// structures by reflection. It is the reproduction's substitute for the
// Classmexer Java instrumentation agent the paper uses to measure the
// size of the XAR in-memory index (Figure 3c).
//
// The walker counts each distinct heap object once (pointer-identity
// de-duplication), adds slice/map/string header and backing-store costs,
// and approximates map bucket overhead. Absolute numbers are estimates —
// Go's allocator rounds size classes — but they are consistent across
// configurations, which is what the memory-vs-cluster-count experiment
// needs.
package memsize

import (
	"reflect"
)

// Of returns the estimated deep size of v in bytes, including everything
// reachable from it. Shared objects reachable through several paths are
// counted once.
func Of(v interface{}) uint64 {
	if v == nil {
		return 0
	}
	w := newWalker()
	rv := reflect.ValueOf(v)
	// Top-level value: count its own footprint plus referents.
	return uint64(rv.Type().Size()) + w.referents(rv)
}

// Accumulator is a reusable deep-size walker: successive Add calls share
// one pointer-identity set, so an object reachable from two additions is
// counted exactly once — by whichever Add reached it first. The
// component-accounting Registry sweeps every registered Measurer through
// a single Accumulator, which is what makes the per-component byte
// totals non-overlapping ("first owner wins") and their sum meaningful.
type Accumulator struct {
	w     *walker
	total uint64
}

// NewAccumulator returns an empty accumulator.
func NewAccumulator() *Accumulator {
	return &Accumulator{w: newWalker()}
}

// Add deep-walks v and adds its not-yet-seen bytes (including v's own
// inline footprint) to the running total.
func (a *Accumulator) Add(v interface{}) {
	if v == nil {
		return
	}
	rv := reflect.ValueOf(v)
	a.total += uint64(rv.Type().Size()) + a.w.referents(rv)
}

// AddBytes adds n structurally-accounted bytes (for components that
// compute parts of their footprint arithmetically instead of by
// reflection, e.g. lock-free structures that must not be walked live).
func (a *Accumulator) AddBytes(n uint64) { a.total += n }

// Total returns the bytes accumulated so far.
func (a *Accumulator) Total() uint64 { return a.total }

type walker struct {
	seen map[uintptr]struct{}
	// leafType caches, per type, whether the walker can learn nothing
	// from a value of that type beyond its inline size (no pointers,
	// slices, maps, strings, or interfaces anywhere inside). Large
	// scalar backing arrays — distance tables, ETA slices, ring
	// buffers — are then counted from the slice header alone instead
	// of one reflect call per element.
	leafType map[reflect.Type]bool
}

func newWalker() *walker {
	return &walker{
		seen:     make(map[uintptr]struct{}),
		leafType: make(map[reflect.Type]bool),
	}
}

// leaf reports whether values of type t have no referents the walker
// counts: walking such a value adds nothing beyond its inline size.
func (w *walker) leaf(t reflect.Type) bool {
	if v, ok := w.leafType[t]; ok {
		return v
	}
	// Tentatively mark true to terminate on recursive types; a struct
	// can only recurse through a pointer, which forces false below.
	w.leafType[t] = true
	v := w.leafKind(t)
	w.leafType[t] = v
	return v
}

func (w *walker) leafKind(t reflect.Type) bool {
	switch t.Kind() {
	case reflect.Ptr, reflect.Slice, reflect.Map, reflect.String, reflect.Interface:
		return false
	case reflect.Chan, reflect.Func, reflect.UnsafePointer:
		return true // opaque: the walker counts the header only
	case reflect.Struct:
		for i := 0; i < t.NumField(); i++ {
			if !w.leaf(t.Field(i).Type) {
				return false
			}
		}
		return true
	case reflect.Array:
		return w.leaf(t.Elem())
	default:
		return true // scalar kinds
	}
}

// mark records a heap address; it reports false if the address was
// already counted.
func (w *walker) mark(p uintptr) bool {
	if p == 0 {
		return false
	}
	if _, ok := w.seen[p]; ok {
		return false
	}
	w.seen[p] = struct{}{}
	return true
}

// referents returns the size of everything v points at, excluding v's own
// inline footprint (which the caller has accounted for).
func (w *walker) referents(v reflect.Value) uint64 {
	switch v.Kind() {
	case reflect.Ptr:
		if v.IsNil() {
			return 0
		}
		if !w.mark(v.Pointer()) {
			return 0
		}
		elem := v.Elem()
		return uint64(elem.Type().Size()) + w.referents(elem)

	case reflect.Slice:
		if v.IsNil() {
			return 0
		}
		elemSize := uint64(v.Type().Elem().Size())
		n := uint64(0)
		if w.mark(v.Pointer()) {
			// Backing array: capacity, not length, is what is retained.
			n += uint64(v.Cap()) * elemSize
		}
		if w.leaf(v.Type().Elem()) {
			return n // scalar backing array: nothing to walk per element
		}
		for i := 0; i < v.Len(); i++ {
			n += w.referents(v.Index(i))
		}
		return n

	case reflect.String:
		// Strings may share backing arrays; counting bytes per reference
		// slightly overestimates, which is acceptable for the index
		// measurement (it stores almost no strings).
		return uint64(v.Len())

	case reflect.Map:
		if v.IsNil() {
			return 0
		}
		if !w.mark(v.Pointer()) {
			return 0
		}
		keySize := uint64(v.Type().Key().Size())
		valSize := uint64(v.Type().Elem().Size())
		n := uint64(48) // hmap header approximation
		iter := v.MapRange()
		for iter.Next() {
			// Bucket slot + referents for key and value.
			n += keySize + valSize
			n += w.referents(iter.Key())
			n += w.referents(iter.Value())
		}
		// Bucket overhead: Go maps allocate ~2x slots plus tophash bytes.
		n += uint64(v.Len()) * (keySize + valSize + 2) / 2
		return n

	case reflect.Struct:
		var n uint64
		for i := 0; i < v.NumField(); i++ {
			n += w.referents(v.Field(i))
		}
		return n

	case reflect.Array:
		if w.leaf(v.Type().Elem()) {
			return 0
		}
		var n uint64
		for i := 0; i < v.Len(); i++ {
			n += w.referents(v.Index(i))
		}
		return n

	case reflect.Interface:
		if v.IsNil() {
			return 0
		}
		elem := v.Elem()
		// Interface data word points at the boxed value.
		return uint64(elem.Type().Size()) + w.referents(elem)

	case reflect.Chan, reflect.Func, reflect.UnsafePointer:
		return 0 // opaque; count the header only

	default:
		return 0 // scalar kinds have no referents
	}
}
