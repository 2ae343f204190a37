package sim

// actHeap is the kernel's future queue: a 4-ary min-heap of activations
// ordered by (at, seq). It is concrete so the compare inlines, and the sifts
// move a hole rather than swap: one 40-byte store per level. Four children to
// a node halve the depth of a binary heap and sit in adjacent cache lines.
type actHeap struct{ a []activation }

// before reports whether x precedes y in (at, seq) order; seq is unique, so
// the order is total.
func before(x, y *activation) bool {
	return x.at < y.at || (x.at == y.at && x.seq < y.seq)
}

func (h *actHeap) len() int { return len(h.a) }

// reset empties the heap, zeroing entries (for the GC) but keeping the
// backing array so a reused heap does not re-grow from scratch.
func (h *actHeap) reset() {
	clear(h.a)
	h.a = h.a[:0]
}

// root returns the minimum in place, valid until the next push or drop.
// Caller checks len.
func (h *actHeap) root() *activation { return &h.a[0] }

// track tells x, stored or about to be stored at index i, where it lies if it
// is a daemon's deadline (Daemon.WaitKickTimeout): every sift that moves one
// calls it, and that is how the heap keeps the index a Kick removes it by.
func (x *activation) track(i int) {
	if x.tag == wakeDeadline {
		x.proc.daemon.dl = int32(i) + 1
	}
}

// hole opens the slot of a new activation at the instant at, which carries the
// highest sequence number so far: the hole sifts up past later instants only,
// and the caller fills the slot at the index it returns, valid until the next
// hole or drop.
func (h *actHeap) hole(at Time) int {
	h.a = append(h.a, activation{})
	a := h.a
	i := len(a) - 1
	for i > 0 {
		p := (i - 1) >> 2
		if a[p].at <= at {
			break
		}
		a[p].track(i)
		a[i] = a[p]
		i = p
	}
	return i
}

// drop removes the minimum, which the caller has read through root.
func (h *actHeap) drop() { h.remove(0) }

// remove takes the activation at index i out of the heap: the last one fills
// the gap and sifts up or down from there.
func (h *actHeap) remove(i int) {
	a := h.a
	n := len(a) - 1
	v := a[n]
	a[n] = activation{}
	a = a[:n]
	h.a = a
	if i == n {
		return
	}
	for i > 0 {
		p := (i - 1) >> 2
		if !before(&v, &a[p]) {
			break
		}
		a[p].track(i)
		a[i] = a[p]
		i = p
	}
	for {
		c := i<<2 + 1
		if c >= n {
			break
		}
		m := c
		for j, end := c+1, min(c+4, n); j < end; j++ {
			if before(&a[j], &a[m]) {
				m = j
			}
		}
		if !before(&a[m], &v) {
			break
		}
		a[m].track(i)
		a[i] = a[m]
		i = m
	}
	v.track(i)
	a[i] = v
}
