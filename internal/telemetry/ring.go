package telemetry

// Ring is a fixed-capacity overwrite-oldest buffer — the storage under
// every observer store: the trace store's rings, the journal's per-ride
// and tail rings, the profiler's capture rings. It is not self-locking;
// the owning store's mutex guards it.
type Ring[T any] struct {
	buf         []T
	next        int // slot the next Add writes
	n           int // retained values (≤ len(buf))
	overwritten bool
}

// NewRing returns an empty ring over buf, of capacity len(buf) (at least
// one). The caller allocates buf so heap profiles charge the ring to the
// store that owns it.
func NewRing[T any](buf []T) Ring[T] { return Ring[T]{buf: buf} }

// Add stores v, overwriting the oldest value when the ring is full.
func (r *Ring[T]) Add(v T) {
	if r.n == len(r.buf) {
		r.overwritten = true
	} else {
		r.n++
	}
	r.buf[r.next] = v
	if r.next++; r.next == len(r.buf) {
		r.next = 0
	}
}

// Len returns the number of retained values.
func (r *Ring[T]) Len() int { return r.n }

// Overwritten reports whether any Add displaced a retained value.
func (r *Ring[T]) Overwritten() bool { return r.overwritten }

// Newest returns the most recently added value (false when empty).
func (r *Ring[T]) Newest() (T, bool) {
	if r.n == 0 {
		var zero T
		return zero, false
	}
	return r.buf[(r.next+len(r.buf)-1)%len(r.buf)], true
}

// AppendTo appends the retained values to dst, oldest to newest.
func (r *Ring[T]) AppendTo(dst []T) []T {
	if r.n < len(r.buf) {
		return append(dst, r.buf[:r.n]...)
	}
	dst = append(dst, r.buf[r.next:]...)
	return append(dst, r.buf[:r.next]...)
}
