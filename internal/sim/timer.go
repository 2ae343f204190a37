package sim

// timerSlot holds what an armed timer delivers: a callback (fn) or a direct
// message delivery (q, msg) — the closure-free form behind AfterPut. The timer itself is an activation with no
// process (see Kernel.fire) carrying the slot's index. A vacant slot links to
// the next vacant one.
type timerSlot struct {
	fn   func()
	q    *Queue[any]
	msg  any
	next int32
}

// After schedules fn to run at now+d, on the stack of RunUntil's dispatch
// loop (Kernel.dispatch).
// Callbacks must not block (they may Put into queues, fire events, notify
// signals — anything non-parking). A timer is ordered like any activation,
// by (deadline, registration sequence), so timers due at the same instant
// fire in registration order, interleaved with the process wakeups scheduled
// between their registrations.
func (k *Kernel) After(d Time, fn func()) {
	k.armTimer(d).fn = fn
}

// AfterPut schedules msg to be delivered into q at now+d. It is
// After(d, func() { q.Put(msg) }) without the closure allocation, for hot
// paths that defer a message per call (the RPC transport's latency model).
func (k *Kernel) AfterPut(d Time, q *Queue[any], msg any) {
	s := k.armTimer(d)
	s.q, s.msg = q, msg
}

// armTimer claims a free slot, schedules its activation at now+d and returns
// the slot for the caller to fill.
func (k *Kernel) armTimer(d Time) *timerSlot {
	if d < 0 {
		d = 0
	}
	i := k.tfree
	if i >= 0 {
		k.tfree = k.tslots[i].next
	} else {
		i = int32(len(k.tslots))
		k.tslots = append(k.tslots, timerSlot{}) // slot-table growth is amortized, bounded by peak armed timers
	}
	k.place(k.now+d, nil, uint64(i), 0)
	return &k.tslots[i]
}

// fire delivers the timer in slot i at its instant at — the caller has just
// popped it, so the limit and Stop hold — and vacates the slot first, so a
// callback that arms a timer may reuse it. A receiver whose wake-up would be
// the very next activation taken (Proc.Sleep's argument: nothing in the ring,
// no future root at this instant) is not queued:
// fire stamps it the sequence number the wake-up would have taken and returns
// it for dispatch to run in place. Otherwise it returns nil.
func (k *Kernel) fire(at Time, i int32) *Proc {
	k.now = at
	k.dispatched++
	s := &k.tslots[i]
	fn, q, msg := s.fn, s.q, s.msg
	*s = timerSlot{next: k.tfree}
	k.tfree = i
	if fn != nil {
		fn()
		return nil
	}
	q.items.Push(msg)
	w := &q.ready.waiters
	if w.Len() == 0 {
		return nil
	}
	r := w.Pop()
	if f := k.future.root(); k.nowQ.Len() > 0 || r.done || (f != nil && f.at == at) {
		k.schedule(r, at, wakeEvent)
		return nil
	}
	k.seq++
	r.wakeTag = wakeEvent
	return r
}
