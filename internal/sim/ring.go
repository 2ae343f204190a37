package sim

// Ring is a growable FIFO ring buffer. Unlike the `s = s[1:]` drain idiom it
// replaces, popping releases the slot for reuse immediately, so a long-lived
// queue's footprint is bounded by its peak occupancy rather than by the total
// number of items that ever passed through it. The zero value is an empty
// ring ready for use.
//
// The buffer capacity is always a power of two so index wrapping is a mask.
type Ring[T any] struct {
	buf  []T
	head int
	n    int
}

// Len returns the number of buffered items.
func (r *Ring[T]) Len() int { return r.n }

// Push appends v at the back.
func (r *Ring[T]) Push(v T) { *r.pushSlot() = v }

// pushSlot appends a slot for the caller to fill, valid until the next Push.
func (r *Ring[T]) pushSlot() *T {
	if r.n == len(r.buf) {
		r.grow()
	}
	s := &r.buf[(r.head+r.n)&(len(r.buf)-1)]
	r.n++
	return s
}

// Pop removes and returns the front item. It panics on an empty ring.
func (r *Ring[T]) Pop() T {
	if r.n == 0 {
		panic("sim: Pop on empty ring")
	}
	v := r.buf[r.head]
	r.drop()
	return v
}

// drop removes the front item without copying it out. Caller checks Len.
func (r *Ring[T]) drop() {
	var zero T
	r.buf[r.head] = zero // release the reference for the GC
	r.head = (r.head + 1) & (len(r.buf) - 1)
	r.n--
}

// Front returns the front item without removing it. It panics on an empty
// ring.
func (r *Ring[T]) Front() T {
	if r.n == 0 {
		panic("sim: Front on empty ring")
	}
	return r.buf[r.head]
}

// front returns the front item in place, valid until the next Push. Caller checks Len.
func (r *Ring[T]) front() *T { return &r.buf[r.head] }

// RemoveFirst deletes the first item matching the predicate, preserving the
// order of the remaining items, and reports whether a match was found.
func (r *Ring[T]) RemoveFirst(match func(T) bool) bool {
	mask := len(r.buf) - 1
	for i := 0; i < r.n; i++ {
		if !match(r.buf[(r.head+i)&mask]) {
			continue
		}
		for j := i; j < r.n-1; j++ {
			r.buf[(r.head+j)&mask] = r.buf[(r.head+j+1)&mask]
		}
		var zero T
		r.buf[(r.head+r.n-1)&mask] = zero
		r.n--
		return true
	}
	return false
}

// Reset empties the ring, keeping the backing buffer for reuse. Buffered
// items are zeroed so the GC can reclaim anything they referenced; the
// capacity acquired at peak occupancy is retained, which is what makes a
// pooled ring cheap to run again.
func (r *Ring[T]) Reset() {
	clear(r.buf)
	r.head, r.n = 0, 0
}

// grow doubles the buffer, unwrapping the occupied region to the front.
func (r *Ring[T]) grow() {
	newCap := 8
	if len(r.buf) > 0 {
		newCap = len(r.buf) * 2
	}
	buf := make([]T, newCap)
	for i := 0; i < r.n; i++ {
		buf[i] = r.buf[(r.head+i)&(len(r.buf)-1)]
	}
	r.buf, r.head = buf, 0
}
