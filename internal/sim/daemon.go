package sim

// Daemon is a pseudo-process for a service loop whose body never blocks
// mid-way: a device driver, a dispatcher, a backend thread. It owns an
// ordinary Proc — id, name, epoch, pending activations, so Blocked, ProcCount
// and the tracer see it like any process — but no coroutine.
// Every activation of the daemon runs step once, inline, on the dispatch
// loop's stack (Kernel.dispatch), so a wake-up costs a function call rather
// than two coroutine switches.
//
// step must not park. It ends by calling exactly one of WaitKick,
// WaitKickTimeout, Sleep, Wait, WaitSignal or Exit — or a queue's Take or
// TakeTimeout that finds nothing — and returning; the next
// activation calls step again, so state that has to survive a wait lives in
// the owner, not on a stack. A wait that is over as soon as it is made steps
// again at once, as a process's Wait and Sleep return at once. DESIGN.md §12
// has the scheduling-order argument.
type Daemon struct {
	p     Proc
	step  func(d *Daemon)
	state daemonState
	again bool  // the step's wait is already over: step again inline
	dl    int32 // where its WaitKickTimeout deadline is queued (futureQ.tier), 0 if none is

	// sig is the signal a timed wait (Queue.TakeTimeout) waits on until the
	// step it wakes, and timedOut tells that step the deadline woke it.
	sig      *Signal
	timedOut bool
}

type daemonState uint8

const (
	daemonStepping daemonState = iota // step running, or first activation pending
	daemonKickWait                    // parked; the next Kick wakes it
	daemonParked                      // asleep, waiting, kicked and about to wake, or exited: Kick is ignored
)

// GoDaemon creates a daemon named name and schedules its first step at the
// current virtual time. Like Go it may be called before Run or from inside a
// running process (or step).
func (k *Kernel) GoDaemon(name string, step func(d *Daemon)) *Daemon {
	d := &Daemon{}
	k.StartDaemon(d, nil, step)
	d.p.name = name
	return d
}

// StartDaemon is GoDaemon for a daemon its owner holds by value, named lazily
// by nameFn: d is the zero Daemon, or one that has exited with no activation
// left queued for it, which starts over under a fresh id — so nothing of its
// previous run can step the next. It panics on a daemon that is live or has
// activations pending.
func (k *Kernel) StartDaemon(d *Daemon, nameFn func() string, step func(d *Daemon)) {
	if d.p.k != nil && (!d.p.done || d.p.pending != 0) {
		panic("sim: StartDaemon of " + d.p.Name() + " while it is live or has activations pending")
	}
	k.nextID++
	d.p = Proc{k: k, id: k.nextID, nameFn: nameFn, daemon: d}
	d.step, d.state, d.again, d.dl = step, daemonStepping, false, 0
	d.sig, d.timedOut = nil, false
	k.procs[&d.p] = struct{}{}
	k.schedule(&d.p, k.now, wakeStart)
}

// run executes one step for the activation the caller just popped, and again
// for as long as the step's wait is over when it is made.
func (d *Daemon) run() {
	d.dl = 0 // the deadline, if it was one, has left the queue
	d.timedOut = false
	if s := d.sig; s != nil {
		// A timed wait is over. Woken by its deadline, the daemon leaves the
		// signal, as Proc.waitTimed does; woken by a notify, the deadline is
		// left to go stale.
		d.sig = nil
		if d.p.wakeTag == wakeTimer {
			d.timedOut = true
			s.waiters.Remove(&d.p)
		}
	}
	for {
		d.p.parked = false
		d.p.epoch++
		d.state = daemonStepping
		d.step(d)
		if d.state == daemonStepping {
			panic("sim: daemon " + d.p.Name() + " step returned without waiting")
		}
		if !d.again {
			return
		}
		d.again = false
	}
}

// Now returns the current virtual time.
func (d *Daemon) Now() Time { return d.p.k.now }

// Kernel returns the kernel running the daemon.
func (d *Daemon) Kernel() *Kernel { return d.p.k }

// Kick wakes the daemon at the current instant if it is parked in WaitKick
// or WaitKickTimeout, and does nothing otherwise — while a step runs, during
// a Sleep, Wait or WaitSignal, after an earlier Kick of the same wait, after
// Exit, and on a nil daemon (a service that has not started yet). A request
// made mid-step is not remembered, so a step reads its owner's state afresh
// before it waits.
//
// A WaitKickTimeout deadline due later leaves the queue: it could only be
// dispatched stale. One due at the current instant stays and is the wake-up,
// since it precedes every activation queued at this instant; the kick then
// queues nothing. Either way no activation is dispatched that would not have
// been, and none is dispatched in another order.
func (d *Daemon) Kick() {
	if d == nil || d.state != daemonKickWait {
		return
	}
	d.state = daemonParked
	k := d.p.k
	if d.dl != 0 {
		h, i := k.future.tier(d.dl)
		if h.a[i].at == k.now {
			return
		}
		// It never goes through the queue, and Queued does not count it.
		k.future.remove(h, i)
		k.queued--
		d.dl = 0
		d.p.pending--
	}
	k.schedule(&d.p, k.now, wakeEvent)
}

// WaitKick ends the step; the next step runs when Kick is called.
func (d *Daemon) WaitKick() { d.end(daemonKickWait) }

// WaitKickTimeout ends the step; the next step runs when Kick is called or
// after dl, whichever comes first.
func (d *Daemon) WaitKickTimeout(dl Time) {
	d.p.k.schedule(&d.p, d.p.k.now+dl, wakeDeadline)
	d.end(daemonKickWait)
}

// Sleep ends the step; the next step runs after dl. Kicks in between are
// ignored. A wake-up that would be the very next activation is taken on the
// spot, as Proc.Sleep takes it.
func (d *Daemon) Sleep(dl Time) {
	dl = max(dl, 0)
	d.end(daemonParked)
	if d.again = d.p.k.wakeNext(dl); !d.again {
		d.p.k.schedule(&d.p, d.p.k.now+dl, wakeTimer)
	}
}

// Wait ends the step; the next step runs when e fires — at once if it has.
func (d *Daemon) Wait(e *Event) {
	d.end(daemonParked)
	if d.again = e.fired; !d.again {
		e.waiters.Push(&d.p)
	}
}

// WaitSignal ends the step; the next step runs when s is next notified.
func (d *Daemon) WaitSignal(s *Signal) {
	d.end(daemonParked)
	s.waiters.Push(&d.p)
}

// waitTimed ends the step; the next step runs when s is next notified or after
// dl, whichever comes first.
func (d *Daemon) waitTimed(s *Signal, dl Time) {
	d.end(daemonParked)
	s.waiters.Push(&d.p)
	d.p.k.schedule(&d.p, d.p.k.now+dl, wakeTimer)
	d.sig = s
}

// Exit ends the step and the daemon: it leaves the process table and never
// runs again.
func (d *Daemon) Exit() {
	d.p.done = true
	delete(d.p.k.procs, &d.p)
	d.end(daemonParked)
}

// end records the step's one wait.
func (d *Daemon) end(s daemonState) {
	if d.state != daemonStepping {
		panic("sim: daemon " + d.p.Name() + " waited twice in one step")
	}
	d.p.parked = true
	d.state = s
}
