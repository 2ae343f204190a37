package sim

// nearSpan splits the future queue: an activation due less than nearSpan
// after it is placed — a link delivery, a device deadline, a short sleep —
// goes to the near tier, any other (a tenant's think time) to the far one.
const nearSpan = 64 * Microsecond

// futureQ is the kernel's future queue: two actHeaps, near and far. An
// activation stays in the tier it was placed in, and the next one is the
// lesser (at, seq) of the two roots — the order one heap of both would pop
// in — so the µs-scale wake-ups of a busy request path sift through a few
// entries, not past every tenant's long sleep. top caches that root, so
// reading it is one load.
type futureQ struct {
	near, far actHeap     // their codes (actHeap.code) are set by NewKernel
	top       *activation // the lesser root, nil when both tiers are empty
	topH      *actHeap    // the tier top lies in
}

// root returns the next activation in place, nil if there is none; valid
// until the queue next changes.
func (q *futureQ) root() *activation { return q.top }

func (q *futureQ) reset() {
	q.near.reset()
	q.far.reset()
	q.top, q.topH = nil, nil
}

// place queues an activation due at at, after now, carrying the highest seq
// so far: it is the next one only if it is due before the current root.
func (q *futureQ) place(now, at Time, seq uint64, p *Proc, epoch uint64, tag int32) {
	h := &q.near
	if at-now >= nearSpan {
		h = &q.far
	}
	if q.top == nil || at < q.top.at {
		q.topH = h
	}
	i := h.hole(at)
	a := &h.a[i]
	a.at, a.seq, a.proc, a.epoch, a.tag = at, seq, p, epoch, tag
	h.track(a, i)
	q.top = &q.topH.a[0] // the hole may have moved the array
}

// drop removes the root, which the caller has read.
func (q *futureQ) drop() {
	q.topH.remove(0)
	q.settle()
}

// tier decodes a Daemon.dl code (actHeap.track) into its tier and index.
func (q *futureQ) tier(dl int32) (*actHeap, int) {
	h := &q.near
	if dl < 0 {
		h = &q.far
	}
	return h, int(dl - h.code)
}

// remove takes the activation at index i of tier h out of the queue.
func (q *futureQ) remove(h *actHeap, i int) {
	h.remove(i)
	q.settle()
}

// settle points top at the lesser of the two roots.
func (q *futureQ) settle() {
	h := &q.far
	if len(q.near.a) > 0 && (len(q.far.a) == 0 || before(&q.near.a[0], &q.far.a[0])) {
		h = &q.near
	}
	q.topH = h
	if len(h.a) == 0 {
		q.top = nil
		return
	}
	q.top = &h.a[0]
}

// actHeap is one tier of the future queue: a 4-ary min-heap of activations
// ordered by (at, seq). It is concrete so the compare inlines, and the sifts
// move a hole rather than swap: one 40-byte store per level. Four children to
// a node halve the depth of a binary heap and sit in adjacent cache lines.
type actHeap struct {
	a    []activation
	code int32 // what index 0 reads as in a Daemon.dl: 1 in the near tier, -1<<31+1 in the far one
}

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

// track tells x, stored or about to be stored at index i, where it lies if it
// is a daemon's deadline (Daemon.WaitKickTimeout): every sift that moves one
// calls it, and that is how the queue keeps the code a Kick removes it by,
// positive in the near tier and negative in the far one.
func (h *actHeap) track(x *activation, i int) {
	if x.tag == wakeDeadline {
		x.proc.daemon.dl = int32(i) + h.code
	}
}

// hole opens the slot of a new activation at the instant at, which carries the
// highest sequence number so far: the hole sifts up past later instants only,
// and the caller fills the slot at the index it returns, valid until the next
// hole or remove.
func (h *actHeap) hole(at Time) int {
	h.a = append(h.a, activation{})
	a := h.a
	i := len(a) - 1
	for i > 0 {
		p := (i - 1) >> 2
		if a[p].at <= at {
			break
		}
		h.track(&a[p], i)
		a[i] = a[p]
		i = p
	}
	return i
}

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
		h.track(&a[p], i)
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
		h.track(&a[m], i)
		a[i] = a[m]
		i = m
	}
	h.track(&v, i)
	a[i] = v
}
