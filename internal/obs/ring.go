package obs

import "sync"

// Ring is the one bounded last-N log in obs — the event timeline, the span
// store and the flight sampler's frames. It grows by append up to its
// capacity, then overwrites the oldest entry; Total counts every Add.
type Ring[T any] struct {
	mu    sync.Mutex
	buf   []T
	cap   int
	total uint64
	// stamp, when set, numbers each value under the lock (Event.Seq).
	stamp func(v *T, seq uint64)
}

// NewRing builds a ring retaining the last capacity values (min 1).
func NewRing[T any](capacity int) *Ring[T] { return &Ring[T]{cap: max(capacity, 1)} }

// Add appends v and, once the ring is full, returns the value it evicted.
func (r *Ring[T]) Add(v T) (evicted T, ok bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.stamp != nil {
		r.stamp(&v, r.total)
	}
	if len(r.buf) < r.cap {
		r.buf = append(r.buf, v)
	} else {
		i := r.total % uint64(r.cap)
		evicted, ok = r.buf[i], true
		r.buf[i] = v
	}
	r.total++
	return evicted, ok
}

// Last returns up to n of the newest values, oldest-first; n < 0 means all.
func (r *Ring[T]) Last(n int) []T {
	r.mu.Lock()
	defer r.mu.Unlock()
	if n < 0 || n > len(r.buf) {
		n = len(r.buf)
	}
	out := make([]T, n)
	k := copy(out, r.buf[(r.total-uint64(n))%uint64(r.cap):])
	copy(out[k:], r.buf)
	return out
}

// Snapshot returns every retained value, oldest-first.
func (r *Ring[T]) Snapshot() []T { return r.Last(-1) }

// Total returns how many values were ever added, overwritten ones included.
func (r *Ring[T]) Total() uint64 { r.mu.Lock(); defer r.mu.Unlock(); return r.total }

// Cap returns the ring's capacity.
func (r *Ring[T]) Cap() int { return r.cap }
