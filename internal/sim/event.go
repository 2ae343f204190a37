package sim

// Event is a one-shot latch. Processes that Wait on it park until Fire is
// called; once fired, all subsequent waits return immediately. Events are the
// completion tokens of the simulation (an op finished, a request completed).
type Event struct {
	k       *Kernel
	fired   bool
	pooled  bool  // drawn from the kernel free list; recycled via Ref/Unref
	refs    int32 // outstanding references to a pooled event
	waiters waitQ
}

// NewEvent returns an unfired event bound to k.
func (k *Kernel) NewEvent() *Event { return &Event{k: k} }

// NewPooledEvent returns an unfired event drawn from the kernel's free list,
// holding one reference for the caller. Holders of additional references take
// them with Ref and release with Unref; the event returns to the free list
// once it has fired, no process waits on it, and every reference is released.
// Use pooled events only for completion tokens with a clear ownership
// discipline (the GPU op path); retaining one past its last Unref aliases a
// recycled event. NewEvent remains the safe default.
func (k *Kernel) NewPooledEvent() *Event {
	if n := len(k.evFree); n > 0 {
		e := k.evFree[n-1]
		k.evFree[n-1] = nil
		k.evFree = k.evFree[:n-1]
		e.fired = false
		e.refs = 1
		return e
	}
	k.evMade++
	return &Event{k: k, pooled: true, refs: 1} // pool grow-on-miss: amortized to zero once the free list reaches peak occupancy
}

// PooledEvents returns how many pooled events the kernel has made and how many
// of them are back on its free list. The rest are held — by their owners, or
// for good by whatever a run cut off at its horizon left holding them.
func (k *Kernel) PooledEvents() (made, free int) { return k.evMade, len(k.evFree) }

// Ref takes an additional reference on a pooled event. It is a no-op on nil
// and unpooled events, so callers need not distinguish.
func (e *Event) Ref() {
	if e != nil && e.pooled {
		e.refs++
	}
}

// Unref releases one reference on a pooled event, recycling it once it has
// fired with no waiters and no references remain. A no-op on nil and unpooled
// events.
func (e *Event) Unref() {
	if e == nil || !e.pooled {
		return
	}
	e.refs--
	e.maybeRecycle()
}

// maybeRecycle returns a pooled event to the free list when it is fully
// released: fired (so no future Fire touches it), no parked waiters, and no
// outstanding references. Unref and Fire both call it, covering the async
// pipeline where the last reference drops before the op fires.
func (e *Event) maybeRecycle() {
	if e.pooled && e.refs <= 0 && e.fired && e.waiters.Len() == 0 {
		e.refs = 0
		e.k.evFree = append(e.k.evFree, e) // free-list growth is amortized, bounded by peak live pooled events
	}
}

// Fired reports whether the event has fired.
func (e *Event) Fired() bool { return e.fired }

// Reset unlatches the event for reuse, keeping the waiter ring's backing
// array. It panics if processes are still parked on the event: resetting
// under a waiter would strand it without the activation Fire promised.
func (e *Event) Reset() {
	if e.waiters.Len() > 0 {
		panic("sim: Event.Reset with parked waiters")
	}
	e.fired = false
}

// Fire latches the event and wakes every waiter at the current virtual
// instant (in wait order). Firing an already fired event is a no-op.
func (e *Event) Fire() {
	if e.fired {
		return
	}
	e.fired = true
	for e.waiters.Len() > 0 {
		e.k.schedule(e.waiters.Pop(), e.k.now, wakeEvent)
	}
	e.maybeRecycle()
}

// Signal is a repeatable notification: each Notify wakes the processes
// currently waiting (in wait order) and leaves the signal ready for new
// waiters. It is the building block for condition-variable-style coordination
// such as the Dispatcher waking backend threads. A waiter is woken on its own
// kernel, so the zero Signal is ready for use and can live inside its owner.
type Signal struct {
	waiters waitQ
}

// Notify wakes every process currently waiting on s.
func (s *Signal) Notify() {
	for n := s.waiters.Len(); n > 0; n-- {
		p := s.waiters.Pop()
		p.k.schedule(p, p.k.now, wakeEvent)
	}
}

// NotifyOne wakes the longest-waiting process, if any, and reports whether a
// process was woken.
func (s *Signal) NotifyOne() bool {
	if s.waiters.Len() == 0 {
		return false
	}
	p := s.waiters.Pop()
	p.k.schedule(p, p.k.now, wakeEvent)
	return true
}
