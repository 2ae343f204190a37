package sim

// Daemon is a pseudo-process for a service loop whose body never blocks
// mid-way: a device driver, a dispatcher. It owns an ordinary Proc — id,
// name, epoch, pending activations, so Blocked, ProcCount and the tracer see
// it like any process — but no coroutine.
// Every activation of the daemon runs step once, inline, on whatever stack
// popped the activation (RunUntil's, or a parking process's: Kernel.dispatch),
// so a wake-up costs a function call rather than two coroutine switches.
//
// step must not park. It ends by calling exactly one of WaitKick,
// WaitKickTimeout, Sleep or Exit and returning; the next activation calls
// step again, so state that has to survive a wait lives in the owner, not on
// a stack. DESIGN.md §12 has the scheduling-order argument.
type Daemon struct {
	p     Proc
	step  func(d *Daemon)
	state daemonState
}

type daemonState uint8

const (
	daemonStepping daemonState = iota // step running, or first activation pending
	daemonKickWait                    // parked; the next Kick wakes it
	daemonParked                      // asleep, kicked and about to wake, or exited: Kick is ignored
)

// GoDaemon creates a daemon named name and schedules its first step at the
// current virtual time. Like Go it may be called before Run or from inside a
// running process (or step).
func (k *Kernel) GoDaemon(name string, step func(d *Daemon)) *Daemon {
	k.nextID++
	d := &Daemon{step: step}
	d.p = Proc{k: k, id: k.nextID, name: name, daemon: d}
	k.procs[&d.p] = struct{}{}
	k.schedule(&d.p, k.now, wakeStart)
	return d
}

// run executes one step for the activation the caller just popped.
func (d *Daemon) run() {
	d.p.parked = false
	d.p.epoch++
	d.state = daemonStepping
	d.step(d)
	if d.state == daemonStepping {
		panic("sim: daemon " + d.p.name + " step returned without waiting")
	}
}

// Now returns the current virtual time.
func (d *Daemon) Now() Time { return d.p.k.now }

// Kick wakes the daemon at the current instant if it is parked in WaitKick
// or WaitKickTimeout, and does nothing otherwise — while a step runs, during
// a Sleep, after an earlier Kick of the same wait, after Exit, and on a nil
// daemon (a service that has not started yet). A request made mid-step is
// not remembered, so a step reads its owner's state afresh before it waits.
func (d *Daemon) Kick() {
	if d == nil || d.state != daemonKickWait {
		return
	}
	d.state = daemonParked
	d.p.k.schedule(&d.p, d.p.k.now, wakeEvent)
}

// WaitKick ends the step; the next step runs when Kick is called.
func (d *Daemon) WaitKick() { d.end(daemonKickWait) }

// WaitKickTimeout ends the step; the next step runs when Kick is called or
// after dl, whichever comes first.
func (d *Daemon) WaitKickTimeout(dl Time) {
	d.p.k.schedule(&d.p, d.p.k.now+dl, wakeTimer)
	d.end(daemonKickWait)
}

// Sleep ends the step; the next step runs after dl. Kicks in between are
// ignored.
func (d *Daemon) Sleep(dl Time) {
	d.p.k.schedule(&d.p, d.p.k.now+dl, wakeTimer)
	d.end(daemonParked)
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
		panic("sim: daemon " + d.p.name + " waited twice in one step")
	}
	d.p.parked = true
	d.state = s
}
