package sim

// timerSlot holds what an armed timer delivers: a callback (fn) or a direct
// message delivery (q, msg) — the closure-free form behind AfterPut. The
// timer itself is an activation with no process (see Kernel.fire) carrying
// the slot's index. A vacant slot links to the next vacant one.
type timerSlot struct {
	fn   func()
	q    *Queue[any]
	msg  any
	next int32
}

// After schedules fn to run at now+d, on the stack of whoever pops the
// timer's activation: RunUntil's, or a parking process's (Kernel.dispatch).
// Callbacks must not block (they may Put into queues, fire events, notify
// signals — anything non-parking). A timer is ordered like any activation,
// by (deadline, registration sequence), so timers due at the same instant
// fire in registration order, interleaved with the process wakeups scheduled
// between their registrations.
func (k *Kernel) After(d Time, fn func()) {
	k.pushTimer(d, timerSlot{fn: fn})
}

// AfterPut schedules msg to be delivered into q at now+d. It is
// After(d, func() { q.Put(msg) }) without the closure allocation, for hot
// paths that defer a message per call (the RPC transport's latency model).
func (k *Kernel) AfterPut(d Time, q *Queue[any], msg any) {
	k.pushTimer(d, timerSlot{q: q, msg: msg})
}

// pushTimer parks s in a free slot and schedules its activation at now+d.
func (k *Kernel) pushTimer(d Time, s timerSlot) {
	if d < 0 {
		d = 0
	}
	i := k.tfree
	if i >= 0 {
		k.tfree = k.tslots[i].next
		k.tslots[i] = s
	} else {
		i = int32(len(k.tslots))
		k.tslots = append(k.tslots, s) // slot-table growth is amortized, bounded by peak armed timers
	}
	k.place(k.now+d, nil, uint64(i), 0)
}

// fire delivers the timer in slot i at its instant at — the caller has just
// popped its activation — and vacates the slot first, so a callback that arms
// a timer may reuse it.
func (k *Kernel) fire(at Time, i int32) {
	k.now = at
	k.dispatched++
	s := &k.tslots[i]
	fn, q, msg := s.fn, s.q, s.msg
	*s = timerSlot{next: k.tfree}
	k.tfree = i
	if fn != nil {
		fn()
	} else {
		q.Put(msg)
	}
}
