// Package seqwin maps dense sequence numbers to values. Per-sender
// sequence numbers run from 1 without gaps, and every buffer the
// protocols keep per sender (holdback, arrivals, parked deltas, stamps
// ahead of a chain head, the sequencer's queue and log, unstable
// messages) holds a short stretch of them that slides forward. A
// Window keeps that stretch in a ring indexed by the key itself, so a
// lookup is a mask and a compare instead of a hash.
package seqwin

const (
	// minRing is the ring a window allocates for its first key.
	minRing = 8
	// keepRing is the largest ring a window keeps however little of it
	// is used: below it, shrinking would only buy reallocation as the
	// window refills.
	keepRing = 64
)

// slot is one ring cell; ok marks a key held there.
type slot[T any] struct {
	v  T
	ok bool
}

// Window maps uint64 keys to values of T. It holds its keys in a
// power-of-two ring spanning the live keys [lo, hi]: key k sits at
// ring[k mod len(ring)]. The ring doubles when a Put would widen the
// span past it and moves to a smaller one once the span fills less than
// a quarter of it, so its memory follows the span, not the history.
// Delete zeroes its slot, so no removed value stays reachable.
//
// A window's memory is proportional to its span, not to its length:
// a caller that puts untrusted keys must bound how far they reach
// beyond the keys it holds. The zero Window is empty and ready to use.
// Not safe for concurrent use.
type Window[T any] struct {
	ring   []slot[T]
	lo, hi uint64 // the smallest and largest key held; meaningful while n > 0
	n      int
}

// Len returns the number of keys held.
func (w *Window[T]) Len() int { return w.n }

// Min returns the smallest key held; ok is false when the window is
// empty.
func (w *Window[T]) Min() (k uint64, ok bool) { return w.lo, w.n > 0 }

// Get returns the value held under k.
func (w *Window[T]) Get(k uint64) (T, bool) {
	if w.n == 0 || k < w.lo || k > w.hi {
		var zero T
		return zero, false
	}
	s := &w.ring[k&uint64(len(w.ring)-1)]
	return s.v, s.ok
}

// Has reports whether k is held.
func (w *Window[T]) Has(k uint64) bool {
	_, ok := w.Get(k)
	return ok
}

// Put holds v under k, replacing any value already there. k may lie
// below the smallest key held as well as above the largest.
func (w *Window[T]) Put(k uint64, v T) {
	switch {
	case w.n == 0:
		if w.ring == nil {
			w.ring = make([]slot[T], minRing)
		}
		w.lo, w.hi = k, k
	case k < w.lo:
		w.fit(w.hi - k)
		w.lo = k
	case k > w.hi:
		w.fit(k - w.lo)
		w.hi = k
	}
	s := &w.ring[k&uint64(len(w.ring)-1)]
	if !s.ok {
		s.ok = true
		w.n++
	}
	s.v = v
}

// Delete removes k and returns the value it held.
func (w *Window[T]) Delete(k uint64) (v T, ok bool) {
	if w.n == 0 || k < w.lo || k > w.hi {
		return v, false
	}
	mask := uint64(len(w.ring) - 1)
	s := &w.ring[k&mask]
	if !s.ok {
		return v, false
	}
	v = s.v
	*s = slot[T]{}
	w.n--
	switch {
	case w.n == 0:
		w.lo, w.hi = 0, 0
	case k == w.lo:
		for w.lo++; !w.ring[w.lo&mask].ok; w.lo++ {
		}
	case k == w.hi:
		for w.hi--; !w.ring[w.hi&mask].ok; w.hi-- {
		}
	}
	if len(w.ring) > keepRing && w.span()*4 < uint64(len(w.ring)) {
		size := minRing
		for uint64(size) < 2*w.span() {
			size *= 2
		}
		w.resize(size)
	}
	return v, true
}

// Ascend calls fn for every key held, in increasing order, until fn
// returns false. fn must not modify the window.
func (w *Window[T]) Ascend(fn func(k uint64, v T) bool) {
	if w.n == 0 {
		return
	}
	mask := uint64(len(w.ring) - 1)
	for k := w.lo; ; k++ {
		if s := &w.ring[k&mask]; s.ok && !fn(k, s.v) {
			return
		}
		if k == w.hi {
			return
		}
	}
}

// span returns the number of keys from lo through hi, 0 when empty.
func (w *Window[T]) span() uint64 {
	if w.n == 0 {
		return 0
	}
	return w.hi - w.lo + 1
}

// fit grows the ring until it can hold a span of d+1 keys.
func (w *Window[T]) fit(d uint64) {
	if d < uint64(len(w.ring)) {
		return
	}
	size := len(w.ring)
	for uint64(size) <= d {
		size *= 2
	}
	w.resize(size)
}

// resize moves the held keys to a ring of size slots (a power of two
// no smaller than the span).
func (w *Window[T]) resize(size int) {
	ring := make([]slot[T], size)
	oldMask, mask := uint64(len(w.ring)-1), uint64(size-1)
	for i, n := uint64(0), w.span(); i < n; i++ {
		k := w.lo + i
		ring[k&mask] = w.ring[k&oldMask]
	}
	w.ring = ring
}
