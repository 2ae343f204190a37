package sim

// Queue is an unbounded FIFO message queue between simulated processes.
// Put never blocks; Get parks the caller until an item is available. Items
// are delivered in insertion order and, when several processes wait, waiters
// are served in arrival order. The backing store is a ring buffer, so a
// long-lived queue's memory is bounded by its peak depth, not by the total
// number of items that ever flowed through it. A Queue must not be copied
// after first use.
type Queue[T any] struct {
	items Ring[T]
	ready Signal
}

// NewQueue returns an empty queue for processes of k. The zero Queue is one
// too, for a queue embedded by value in its owner.
func NewQueue[T any](k *Kernel) *Queue[T] { return &Queue[T]{} }

// Reset empties the queue and forgets its waiters, keeping the ring's array,
// for a queue that outlives a Reset of its kernel.
func (q *Queue[T]) Reset() {
	q.items.Reset()
	q.ready = Signal{}
}

// Len returns the number of queued items.
func (q *Queue[T]) Len() int { return q.items.Len() }

// Put appends v and wakes one waiting receiver, if any.
func (q *Queue[T]) Put(v T) {
	q.items.Push(v)
	q.ready.NotifyOne()
}

// Get removes and returns the oldest item, parking p until one is available.
func (q *Queue[T]) Get(p *Proc) T {
	for q.items.Len() == 0 {
		p.WaitSignal(&q.ready)
	}
	return q.pop()
}

// Take is Get for a daemon: it removes and returns the oldest item, or, when
// there is none, ends d's step waiting for the next Put and reports false.
func (q *Queue[T]) Take(d *Daemon) (v T, ok bool) {
	if q.items.Len() == 0 {
		d.WaitSignal(&q.ready)
		return v, false
	}
	return q.pop(), true
}

// TakeTimeout is GetTimeout for a daemon, a wait over two steps. It removes
// and returns the oldest item (ok). When there is none it ends d's step
// waiting for the next Put for at most dl and reports neither ok nor expired;
// the step that wait's deadline wakes finds the wait over (expired), as does a
// call with dl not positive. An item that comes in at the deadline instant
// before the step runs is still taken.
func (q *Queue[T]) TakeTimeout(d *Daemon, dl Time) (v T, ok, expired bool) {
	if q.items.Len() > 0 {
		d.timedOut = false
		return q.pop(), true, false
	}
	if d.timedOut || dl <= 0 {
		d.timedOut = false
		return v, false, true
	}
	d.waitTimed(&q.ready, dl)
	return v, false, false
}

// pop removes the oldest item for a receiver, passing the baton if items
// remain, so a burst of Puts wakes every parked receiver exactly once.
func (q *Queue[T]) pop() T {
	v := q.items.Pop()
	if q.items.Len() > 0 {
		q.ready.NotifyOne()
	}
	return v
}

// TryGet removes and returns the oldest item without blocking; ok reports
// whether an item was available.
func (q *Queue[T]) TryGet() (v T, ok bool) {
	if q.items.Len() == 0 {
		return v, false
	}
	return q.items.Pop(), true
}

// GetTimeout is like Get but gives up after d; ok reports whether an item was
// received.
func (q *Queue[T]) GetTimeout(p *Proc, d Time) (v T, ok bool) {
	deadline := p.Now() + d
	for q.items.Len() == 0 {
		remain := deadline - p.Now()
		if remain <= 0 || !p.WaitSignalTimeout(&q.ready, remain) {
			if q.items.Len() > 0 {
				break // an item raced in at the deadline instant
			}
			return v, false
		}
	}
	return q.pop(), true
}
