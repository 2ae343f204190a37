package sim

import "fmt"

// Proc is a simulated process: a coroutine cooperatively scheduled by a
// Kernel. All Proc methods must be called from the process's own function;
// they are the points at which the process can block and virtual time can
// advance.
type Proc struct {
	k      *Kernel
	id     int
	name   string
	nameFn func() string // a daemon's lazy name, formatted on first use (StartDaemon)

	// resume switches into the process's coroutine (the caller's side of
	// iter.Pull, called by Kernel.dispatch and Kernel.unwind); yield switches
	// back out to that caller (called by park). A daemon's process has
	// neither: its activations run daemon.run instead.
	resume func() (struct{}, bool)
	yield  func(struct{}) bool
	daemon *Daemon

	epoch   uint64 // incremented on every wakeup; see activation.epoch
	pending int    // number of queued activations
	parked  bool
	done    bool
	wakeTag int32
}

// unwound is what park panics with while the kernel unwinds its processes
// (Kernel.unwind); body alone recovers it.
type unwound struct{}

// run is the body of the process's coroutine: the process's function, after
// which the process leaves the table and the coroutine ends.
func (p *Proc) run(fn func(p *Proc), yield func(struct{}) bool) {
	p.yield = yield
	p.epoch++
	p.body(fn)
	p.done = true
	delete(p.k.procs, p)
}

// body runs the process's function. While the kernel unwinds, a process that
// never started is skipped, and the panic a started one's park raises ends
// here once the function's defers have run; any other panic goes on to
// whoever resumed the coroutine.
func (p *Proc) body(fn func(p *Proc)) {
	k := p.k
	if k.unwinding {
		return
	}
	defer func() {
		if k.unwinding {
			switch r := recover().(type) {
			case nil, unwound:
			default:
				panic(r)
			}
		}
	}()
	fn(p)
}

// Name returns the process name given to Kernel.Go or GoDaemon, formatting it
// on first use when a daemon was started with a name function.
func (p *Proc) Name() string {
	if p.name == "" && p.nameFn != nil {
		p.name = p.nameFn()
		p.nameFn = nil
	}
	return p.name
}

// Kernel returns the kernel running this process.
func (p *Proc) Kernel() *Kernel { return p.k }

// Now returns the current virtual time.
func (p *Proc) Now() Time { return p.k.now }

// park blocks until this process's next wakeup: it yields to RunUntil's
// dispatch loop, which resumes it when it pops that wake-up — or to
// Kernel.unwind, which it answers by panicking out of the body; so does a park
// that one of the body's defers reaches on the way out.
func (p *Proc) park() {
	k := p.k
	if k.unwinding {
		panic(unwound{})
	}
	p.parked = true
	p.yield(struct{}{})
	if k.unwinding {
		panic(unwound{})
	}
	p.parked = false
	p.epoch++
}

// Sleep blocks the process for d units of virtual time. Nonpositive
// durations yield the processor for the current instant (other activations
// at the same time run first).
//
// When the wake-up would be the very next activation taken — nothing is
// queued at the current instant, it falls within the run limit, the run is
// neither stopped nor unwinding, and the future queue is empty or its root
// strictly later (a root at the same instant is older and goes first) —
// queueing it, parking and taking it back would change nothing else, so Sleep
// consumes it on the spot and leaves the kernel as that round trip would have:
// one sequence number, one dispatch, the gap counted as dispatch counts it.
func (p *Proc) Sleep(d Time) {
	d = max(d, 0)
	if p.k.wakeNext(d) {
		p.wakeTag = wakeTimer
		p.epoch++
		return
	}
	p.k.schedule(p, p.k.now+d, wakeTimer)
	p.park()
}

// wakeNext takes a sleep's wake-up d from now on the spot when it would be the
// very next activation taken, and reports whether it did.
func (k *Kernel) wakeNext(d Time) bool {
	at := k.now + d
	if r := k.future.root(); k.nowQ.Len() == 0 && at <= k.limit && !k.stopped && !k.unwinding &&
		(r == nil || r.at > at) {
		k.seq++
		k.dispatched++
		k.countJump(d)
		k.now = at
		return true
	}
	return false
}

// Wait blocks until e fires. If e has already fired it returns immediately.
func (p *Proc) Wait(e *Event) {
	if e.fired {
		return
	}
	e.waiters.Push(p)
	p.park()
}

// WaitSignal blocks until s is next notified.
func (p *Proc) WaitSignal(s *Signal) {
	s.waiters.Push(p)
	p.park()
}

// WaitSignalTimeout blocks until s is notified or d elapses; it reports
// whether the signal arrived.
func (p *Proc) WaitSignalTimeout(s *Signal, d Time) bool {
	return p.waitTimed(&s.waiters, d)
}

// waitTimed parks p on waiters for at most d and reports whether it was woken
// from there; if not, p leaves the list, so that no later wake finds it there.
func (p *Proc) waitTimed(waiters *waitQ, d Time) bool {
	waiters.Push(p)
	p.k.schedule(p, p.k.now+d, wakeTimer)
	p.park()
	if p.wakeTag == wakeEvent {
		return true
	}
	waiters.Remove(p)
	return false
}

// Tracef emits a trace line through the kernel's tracer, if one is installed.
func (p *Proc) Tracef(format string, args ...interface{}) {
	if p.k.tracer != nil {
		p.k.tracer(p.k.now, p.Name(), fmt.Sprintf(format, args...))
	}
}
