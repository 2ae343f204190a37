package sim

// timerEntry is a deferred action: either a callback (fn) or a direct
// message delivery (q, msg) — the closure-free form behind AfterPut.
type timerEntry struct {
	at  Time
	seq uint64
	fn  func()
	q   *Queue[any]
	msg any
}

// lessThan orders timer entries by (time, registration sequence).
func (a timerEntry) lessThan(b timerEntry) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

// timers is the kernel's deferred-callback facility, backed by one lazily
// started daemon.
type timers struct {
	heap heap4[timerEntry]
	seq  uint64
	d    *Daemon
}

// After schedules fn to run at now+d in the context of the kernel's timer
// daemon. Callbacks must not block (they may Put into queues, fire events,
// notify signals — anything non-parking). Callbacks at the same instant run
// in registration order.
func (k *Kernel) After(d Time, fn func()) {
	k.pushTimer(d, timerEntry{fn: fn})
}

// AfterPut schedules msg to be delivered into q at now+d, in the context of
// the kernel's timer daemon. It is After(d, func() { q.Put(msg) }) without
// the closure allocation, for hot paths that defer a message per call (the
// RPC transport's latency model). Deliveries and callbacks at the same
// instant run in registration order.
func (k *Kernel) AfterPut(d Time, q *Queue[any], msg any) {
	k.pushTimer(d, timerEntry{q: q, msg: msg})
}

// pushTimer registers the entry at now+d and kicks the timer daemon.
func (k *Kernel) pushTimer(d Time, e timerEntry) {
	if d < 0 {
		d = 0
	}
	if k.timers == nil {
		k.timers = &timers{}
	}
	t := k.timers
	t.seq++
	e.at = k.now + d
	e.seq = t.seq
	t.heap.push(e)
	if t.d == nil {
		t.d = k.GoDaemon("sim-timers", t.step)
		return
	}
	t.d.Kick()
}

// step delivers the deferred callbacks that are due, in time order, then
// waits for the next deadline or the next push. A callback that pushes a
// timer finds the daemon mid-step, where Kick does nothing; the loop reads
// the heap afresh each time round, so an entry pushed for this instant is
// still delivered in this step.
//
//strings:hotpath
func (t *timers) step(d *Daemon) {
	now := d.Now()
	for t.heap.len() > 0 && t.heap.peek().at <= now {
		e := t.heap.pop()
		if e.fn != nil {
			e.fn()
		} else {
			e.q.Put(e.msg)
		}
	}
	if t.heap.len() == 0 {
		d.WaitKick()
		return
	}
	d.WaitKickTimeout(t.heap.peek().at - now)
}
