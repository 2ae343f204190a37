package sim

import (
	"container/heap"
	"math/rand"
	"os"
	"reflect"
	"strconv"
	"strings"
	"testing"
)

// The kernel stores an activation in one of two structures, reads the next one
// where it lies and does not store some sleeps at all. What it owes its callers
// is what a single queue ordered by (time, sequence) that queues everything
// would do. refKernel is that queue; checkSchedule runs random programs on both
// and compares every dispatch, the counters and the next pending instant.

// refAct is a pending activation of the reference: of a process (stale once
// the process has been woken since), or a timer (p nil) that runs fire.
type refAct struct {
	at    Time
	seq   uint64
	p     *refProc
	epoch uint64
	tag   int32
	fire  func()
	tier  int8 // where the kernel queues it: 0 the ring, 1 the near tier, 2 the far one (futureQ)
}

// refProc is a process or daemon of the reference: run continues it, told what
// woke it. in is what it last waited in on a queue.
type refProc struct {
	epoch uint64
	run   func(tag int32)
	in    int
}

// What a reference process or daemon waits in on a queue; a delivery folded
// into it is counted under that.
const (
	inTake   = iota // a daemon's Take
	inGet           // a process's Get
	inGetTO         // a process's GetTimeout
	inTakeTO        // a daemon's TakeTimeout
	inKinds
)

type refActs []refAct

func (h refActs) Len() int      { return len(h) }
func (h refActs) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h refActs) Less(i, j int) bool {
	return h[i].at < h[j].at || (h[i].at == h[j].at && h[i].seq < h[j].seq)
}
func (h *refActs) Push(x any) { *h = append(*h, x.(refAct)) }
func (h *refActs) Pop() any {
	old := *h
	a := old[len(old)-1]
	*h = old[:len(old)-1]
	return a
}

// refKernel is the reference executor: one container/heap ordered by
// (at, seq), every wake-up and every sleep queued in it. What the kernel does
// not queue it counts: taken the sleeps the kernel takes on the spot, folds
// the delivery wake-ups it runs in place, cancelled the deadlines kicks take
// out of the heap — so the kernel's Queued is seq less those. inline counts
// the daemon waits on an event that had already fired, foldsIn the folds by
// what their receiver waited in, and timedOut and timedTook how the daemon
// TakeTimeout waits ended: at their deadline, or with an item. far counts what
// the kernel places in its far tier, and tierTies the pops whose instant an
// entry of the other tier shares.
type refKernel struct {
	now, horizon, skipped, limit                                   Time
	seq, dispatched, jumps, stale, inline, taken, folds, cancelled uint64
	timedOut, timedTook, far, tierTies                             uint64
	foldsIn                                                        [inKinds]uint64
	stopped                                                        bool
	h                                                              refActs
}

// queued is Kernel.Queued.
func (r *refKernel) queued() uint64 { return r.seq - r.taken - r.folds - r.cancelled }

// nextAfter reports whether every queued activation is due after at.
func (r *refKernel) nextAfter(at Time) bool {
	for _, a := range r.h {
		if a.at <= at {
			return false
		}
	}
	return true
}

// sleep queues p's wake-up d from now, and counts it taken on the spot when
// the kernel would (Proc.Sleep).
func (r *refKernel) sleep(p *refProc, d Time) {
	if at := r.now + d; at <= r.limit && !r.stopped && r.nextAfter(at) {
		r.taken++
	}
	r.schedule(p, r.now+d, wakeTimer, nil)
}

func (r *refKernel) schedule(p *refProc, at Time, tag int32, fire func()) {
	r.seq++
	a := refAct{at: at, seq: r.seq, p: p, tag: tag, fire: fire}
	switch {
	case at-r.now >= nearSpan:
		a.tier = 2
		r.far++
	case at > r.now:
		a.tier = 1
	}
	if p != nil {
		a.epoch = p.epoch
	}
	heap.Push(&r.h, a)
}

func (r *refKernel) countJump(gap Time) {
	if gap >= r.horizon {
		r.jumps++
		r.skipped += gap
	}
}

// runUntil is Kernel.RunUntil. front is the instant the loop has advanced to;
// it runs ahead of now over activations that turn out stale, and the gap to a
// new front is measured from now.
func (r *refKernel) runUntil(limit Time) int {
	r.stopped = false
	r.limit = limit
	start, front := r.dispatched, r.now
	for !r.stopped && len(r.h) > 0 && r.h[0].at <= limit {
		a := heap.Pop(&r.h).(refAct)
		for _, b := range r.h {
			if b.at == a.at && a.tier > 0 && b.tier > 0 && b.tier != a.tier {
				r.tierTies++ // the kernel's two roots tie on the instant: seq decides
				break
			}
		}
		if a.at > front {
			front = a.at
			r.countJump(a.at - r.now)
		}
		if a.p != nil && a.epoch != a.p.epoch {
			r.stale++
			continue
		}
		r.now = a.at
		r.dispatched++
		if a.p == nil {
			a.fire()
			continue
		}
		a.p.epoch++
		a.p.run(a.tag)
	}
	if !r.stopped && len(r.h) > 0 && r.now < limit {
		r.countJump(limit - r.now)
		r.now = limit
	}
	return int(r.dispatched - start)
}

func (r *refKernel) nextEventTime() (Time, bool) {
	if len(r.h) == 0 {
		return 0, false
	}
	return r.h[0].at, true
}

// TestActHeapAgainstContainerHeap drives the kernel's future queue at depths
// the programs below never reach, against one container/heap: instants drawn
// from the current one to twice the near span ahead, so equal instants fall in
// both tiers; places, pops and removals interleaved; every root compared. A
// popped root moves the clock to its instant, as dispatch does. Some entries
// are daemon deadlines, and a removal takes one out by its Daemon.dl code, so
// the codes are checked to name their own entry in either tier.
func TestActHeapAgainstContainerHeap(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	k := NewKernel(1)
	q := &k.future
	var ref refActs
	daemons := make([]Daemon, 8)
	for i := range daemons {
		daemons[i].p.daemon = &daemons[i]
	}
	deadline := map[*Daemon]uint64{} // the seq of each daemon's queued deadline
	var now Time
	var popped, removed [2]int // near, far
	tierOf := func(h *actHeap) int {
		if h == &q.far {
			return 1
		}
		return 0
	}
	for seq := uint64(1); seq <= 20000 || len(ref) > 0; seq++ {
		if seq <= 20000 && rng.Intn(5) < 3 {
			k.now, k.seq = now, seq-1
			at := now + 1 + Time(rng.Intn(int(2*nearSpan)))
			d := &daemons[rng.Intn(len(daemons))]
			if d.dl != 0 || rng.Intn(3) > 0 {
				k.place(at, nil, seq, wakeTimer)
				heap.Push(&ref, refAct{at: at, seq: seq})
				continue
			}
			k.place(at, &d.p, seq, wakeDeadline)
			heap.Push(&ref, refAct{at: at, seq: seq, tag: wakeDeadline})
			deadline[d] = seq
			continue
		}
		if len(ref) == 0 {
			continue
		}
		if d := &daemons[rng.Intn(len(daemons))]; d.dl != 0 && rng.Intn(2) == 0 {
			h, i := q.tier(d.dl)
			want := deadline[d]
			if got := h.a[i]; got.proc != &d.p || got.seq != want {
				t.Fatalf("dl %d names seq %d, want the daemon's deadline seq %d", d.dl, got.seq, want)
			}
			removed[tierOf(h)]++
			q.remove(h, i)
			d.dl = 0
			for j := range ref {
				if ref[j].seq == want {
					heap.Remove(&ref, j)
					break
				}
			}
			continue
		}
		want := heap.Pop(&ref).(refAct)
		got := q.root()
		if got == nil || got.at != want.at || got.seq != want.seq || got.epoch != want.seq {
			t.Fatalf("root %+v, want (%v, %d) with its own epoch", got, want.at, want.seq)
		}
		popped[tierOf(q.topH)]++
		if got.tag == wakeDeadline {
			got.proc.daemon.dl = 0 // as Daemon.run clears it
		}
		now = got.at
		q.drop()
	}
	if q.near.len()+q.far.len() != 0 || q.root() != nil {
		t.Fatalf("%d near and %d far entries left", q.near.len(), q.far.len())
	}
	t.Logf("popped near/far %v, removed near/far %v", popped, removed)
	if min(popped[0], popped[1], removed[0], removed[1]) < 100 {
		t.Fatalf("both tiers no longer see pops and removals: popped %v, removed %v", popped, removed)
	}
}

// A program is a handful of processes and daemons over two signals, two
// events, two queues and the timers, and a driver that runs the kernel in
// slices. AfterPut deliveries find their receivers parked in Get, in
// GetTimeout with the timeout pending, in a daemon's Take, or not there at
// all, with same-instant competitors queued or not:
// the cases the kernel runs a receiver in place of its wake-up, and those it
// must not.
const (
	opSleep    = iota // Sleep(d)
	opAfter           // After(d): the callback notifies signal x and kicks daemon x
	opAfterPut        // AfterPut(d) into queue x
	opGet             // Get from queue x; a daemon's act: Take from queue x
	opGetTO           // GetTimeout(queue x, d); a daemon's act: TakeTimeout(queue x, d)
	opWaitSig         // WaitSignalTimeout(signal x, d)
	opNotify          // Notify signal x
	opKick            // Kick daemon x
	opStop            // Stop
	opFire            // Fire event x
)

// programOps is what a process's steps are drawn from.
var programOps = []int{opSleep, opSleep, opSleep, opAfter, opAfterPut, opAfterPut, opGet, opGetTO, opWaitSig, opWaitSig, opNotify, opKick, opStop, opFire}

type op struct {
	kind, x int
	d       Time
}

// A daemon step acts (opNotify, opAfterPut, opFire, opGet, opGetTO, or
// nothing: -1) and then waits: end 0 WaitKick, 1 WaitKickTimeout(d), 2
// Sleep(d), 3 WaitSignal(signal x), 4 Wait(event x) — which, on an event that
// has fired, continues the step at once. A Take or TakeTimeout that finds the
// queue empty waits for the next Put instead, and the step starts over when it
// comes, or, for TakeTimeout, at its deadline. After its last step the daemon
// exits. Which Takes are timed comes from the tape's tail, so a program dealt
// before TakeTimeout existed decodes as it did.
type daemonStep struct {
	act, x, end int
	d           Time
}

// A driver step arms a timer from outside the run (inject) and runs until
// limit: now+d, or off instants of the next pending activation.
const (
	limitDelta = iota
	limitBeforeNext
	limitAtNext
	limitAfterNext
	limitKinds
)

type driverStep struct {
	inject bool
	limit  int
	d      Time
}

type program struct {
	horizon Time
	procs   [][]op
	daemons [][]daemonStep
	driver  []driverStep
}

// programHorizon is the fast-forward horizon programs run with: the
// durations below sit at, one short of and beyond it and the future queue's
// near span, and are small enough that wake-ups collide at one instant all
// the time, in one tier and across the two.
const programHorizon = 16

var programDurations = []Time{0, 0, 1, 2, 3, 5, programHorizon - 1, programHorizon, programHorizon + 1, 50,
	nearSpan - 1, nearSpan, nearSpan + 1}

// tape deals a program's choices from fuzz input; an exhausted tape deals zeros.
type tape struct{ b []byte }

func (t *tape) next(n int) int {
	if len(t.b) == 0 {
		return 0
	}
	v := int(t.b[0]) % n
	t.b = t.b[1:]
	return v
}

func (t *tape) duration() Time { return programDurations[t.next(len(programDurations))] }

func newProgram(data []byte) program {
	t := &tape{data}
	pr := program{horizon: programHorizon}
	for i, n := 0, 1+t.next(6); i < n; i++ {
		ops := make([]op, 1+t.next(12))
		for j := range ops {
			ops[j] = op{kind: programOps[t.next(len(programOps))], x: t.next(2), d: t.duration()}
		}
		pr.procs = append(pr.procs, ops)
	}
	for i, n := 0, t.next(3); i < n; i++ {
		steps := make([]daemonStep, 1+t.next(5))
		for j := range steps {
			steps[j] = daemonStep{act: []int{-1, opNotify, opAfterPut, opFire, opGet}[t.next(5)], x: t.next(2), end: t.next(5), d: t.duration()}
		}
		pr.daemons = append(pr.daemons, steps)
	}
	for i, n := 0, t.next(6); i < n; i++ {
		pr.driver = append(pr.driver, driverStep{inject: t.next(4) == 0, limit: t.next(limitKinds), d: t.duration()})
	}
	for _, steps := range pr.daemons {
		for j := range steps {
			if steps[j].act == opGet && t.next(2) == 1 {
				steps[j].act = opGetTO
			}
		}
	}
	return pr
}

// dispatchRec is one line of the dispatch log: who ran at what instant (a
// process, 100+ a daemon, -1 a timer), at which step, and what the step read.
type dispatchRec struct {
	At           Time
	Who, PC, Val int
}

// checkpoint is what a driver step leaves behind.
type checkpoint struct {
	Ran, Log         int
	Now, Skipped     Time
	Seq, Disp, Jumps uint64
	Queued           uint64
	Next             Time
	Pending          bool
}

type schedTrace struct {
	Log    []dispatchRec
	Points []checkpoint
}

func (tr *schedTrace) log(at Time, who, pc, val int) {
	tr.Log = append(tr.Log, dispatchRec{at, who, pc, val})
}

// limitFor turns a driver step into a RunUntil limit.
func (s driverStep) limitFor(now, next Time, pending bool) Time {
	if !pending || s.limit == limitDelta {
		return now + s.d
	}
	return next + Time(s.limit-limitAtNext)
}

// runOnKernel runs pr on k, which is fresh or Reset.
func runOnKernel(k *Kernel, pr program) schedTrace {
	var tr schedTrace
	k.SetFFHorizon(pr.horizon)
	sigs := []*Signal{new(Signal), new(Signal)}
	evs := []*Event{k.NewEvent(), k.NewEvent()}
	qs := []*Queue[any]{NewQueue[any](k), NewQueue[any](k)}
	daemons := make([]*Daemon, 2)
	timer := func(x int) func() {
		return func() {
			tr.log(k.Now(), -1, x, 0)
			sigs[x].Notify()
			daemons[x].Kick()
		}
	}
	for j, steps := range pr.daemons {
		pc := 0
		daemons[j] = k.GoDaemon("d", func(d *Daemon) {
			tr.log(d.Now(), 100+j, pc, 0)
			if pc == len(steps) {
				d.Exit()
				return
			}
			s := steps[pc]
			switch s.act {
			case opGet:
				v, ok := qs[s.x].Take(d)
				if !ok {
					return
				}
				tr.log(d.Now(), 100+j, pc, v.(int))
			case opGetTO:
				v, ok, expired := qs[s.x].TakeTimeout(d, s.d)
				if !ok && !expired {
					return
				}
				val := -1
				if ok {
					val = v.(int)
				}
				tr.log(d.Now(), 100+j, pc, val)
			}
			pc++
			switch s.act {
			case opNotify:
				sigs[s.x].Notify()
			case opAfterPut:
				k.AfterPut(s.d, qs[s.x], 100+j)
			case opFire:
				evs[s.x].Fire()
			}
			switch s.end {
			case 0:
				d.WaitKick()
			case 1:
				d.WaitKickTimeout(s.d)
			case 2:
				d.Sleep(s.d)
			case 3:
				d.WaitSignal(sigs[s.x])
			default:
				d.Wait(evs[s.x])
			}
		})
	}
	for i, ops := range pr.procs {
		k.Go("p", func(p *Proc) {
			for pc, o := range ops {
				val := 0
				switch o.kind {
				case opSleep:
					p.Sleep(o.d)
				case opAfter:
					k.After(o.d, timer(o.x))
				case opAfterPut:
					k.AfterPut(o.d, qs[o.x], i)
				case opGet:
					val = qs[o.x].Get(p).(int)
				case opGetTO:
					val = -1
					if v, ok := qs[o.x].GetTimeout(p, o.d); ok {
						val = v.(int)
					}
				case opWaitSig:
					if p.WaitSignalTimeout(sigs[o.x], o.d) {
						val = 1
					}
				case opNotify:
					sigs[o.x].Notify()
				case opKick:
					daemons[o.x].Kick()
				case opStop:
					k.Stop()
				case opFire:
					evs[o.x].Fire()
				}
				tr.log(p.Now(), i, pc, val)
			}
		})
	}
	point := func(ran int) {
		next, pending := k.NextEventTime()
		jumps, skipped := k.FastForwards()
		tr.Points = append(tr.Points, checkpoint{ran, len(tr.Log), k.Now(), skipped, k.seq, k.Dispatched(), jumps, k.Queued(), next, pending})
	}
	point(0)
	for _, s := range pr.driver {
		if s.inject {
			k.After(s.d, timer(0))
		}
		next, pending := k.NextEventTime()
		point(k.RunUntil(s.limitFor(k.Now(), next, pending)))
	}
	point(k.Run())
	point(k.Run()) // a Stop may have ended the first
	return tr
}

// refSignal and refQueue are Signal and Queue over the reference: waiters in
// arrival order, each woken by an activation at the current instant.
type refSignal struct {
	r       *refKernel
	waiters []*refProc
}

func (s *refSignal) notify(n int) {
	for ; n > 0 && len(s.waiters) > 0; n-- {
		s.r.schedule(s.waiters[0], s.r.now, wakeEvent, nil)
		s.waiters = s.waiters[1:]
	}
}

func (s *refSignal) remove(p *refProc) {
	for i, w := range s.waiters {
		if w == p {
			s.waiters = append(s.waiters[:i:i], s.waiters[i+1:]...)
			return
		}
	}
}

// refEvent is Event over the reference.
type refEvent struct {
	r       *refKernel
	fired   bool
	waiters []*refProc
}

func (e *refEvent) fire() {
	if e.fired {
		return
	}
	e.fired = true
	for _, w := range e.waiters {
		e.r.schedule(w, e.r.now, wakeEvent, nil)
	}
	e.waiters = nil
}

type refQueue struct {
	items []int
	ready refSignal
}

func (q *refQueue) put(v int) {
	q.items = append(q.items, v)
	q.ready.notify(1)
}

// deliver is an AfterPut delivery: a put whose receiver's wake-up, when it is
// the next activation, the kernel runs in place without queueing it.
func (q *refQueue) deliver(v int) {
	if r := q.ready.r; len(q.ready.waiters) > 0 && r.nextAfter(r.now) {
		r.folds++
		r.foldsIn[q.ready.waiters[0].in]++
	}
	q.put(v)
}

// take removes the oldest item, passing the baton if items remain. Caller
// checks there is one.
func (q *refQueue) take() int {
	v := q.items[0]
	q.items = q.items[1:]
	if len(q.items) > 0 {
		q.ready.notify(1)
	}
	return v
}

// refDaemon is Daemon over the reference: kickable only while it waits for a
// kick. deadline is the instant of its WaitKickTimeout deadline while one is
// queued at a later instant than the wait began, -1 otherwise; timed is the
// queue of its TakeTimeout wait while it waits.
type refDaemon struct {
	p        refProc
	kickWait bool
	deadline Time
	timed    *refQueue
}

// kick drops a deadline due later and queues the wake-up; a deadline due now
// is the wake-up, and nothing is queued.
func (d *refDaemon) kick(r *refKernel) {
	if d == nil || !d.kickWait {
		return
	}
	d.kickWait = false
	if d.deadline >= 0 {
		if d.deadline == r.now {
			return
		}
		for i, a := range r.h {
			if a.p == &d.p && a.epoch == d.p.epoch {
				heap.Remove(&r.h, i)
				r.cancelled++
				break
			}
		}
		d.deadline = -1
	}
	r.schedule(&d.p, r.now, wakeEvent, nil)
}

// runOnReference runs pr on a reference kernel: each process is a
// continuation that finishes the call it blocked in and goes on to the next
// one that blocks.
func runOnReference(pr program) (schedTrace, *refKernel) {
	var tr schedTrace
	r := &refKernel{horizon: pr.horizon}
	sigs := []*refSignal{{r: r}, {r: r}}
	evs := []*refEvent{{r: r}, {r: r}}
	qs := []*refQueue{{ready: refSignal{r: r}}, {ready: refSignal{r: r}}}
	daemons := make([]*refDaemon, 2)
	timer := func(x int) func() {
		return func() {
			tr.log(r.now, -1, x, 0)
			sigs[x].notify(len(sigs[x].waiters))
			daemons[x].kick(r)
		}
	}
	for j, steps := range pr.daemons {
		pc := 0
		d := &refDaemon{deadline: -1}
		daemons[j] = d
		d.p.run = func(tag int32) {
			d.kickWait, d.deadline = false, -1
			waited, timedOut := d.timed != nil, false
			if waited {
				if timedOut = tag == wakeTimer; timedOut {
					d.timed.ready.remove(&d.p)
				}
				d.timed = nil
			}
			for {
				tr.log(r.now, 100+j, pc, 0)
				if pc == len(steps) {
					return
				}
				s := steps[pc]
				if timed := s.act == opGetTO; timed || s.act == opGet {
					q, val := qs[s.x], -1
					switch {
					case len(q.items) > 0:
						if val = q.take(); waited {
							r.timedTook++
						}
					case timed && (timedOut || s.d <= 0):
						if timedOut {
							r.timedOut++
						}
					default:
						q.ready.waiters = append(q.ready.waiters, &d.p)
						if d.p.in = inTake; timed {
							d.p.in, d.timed = inTakeTO, q
							r.schedule(&d.p, r.now+s.d, wakeTimer, nil)
						}
						return
					}
					waited, timedOut = false, false
					tr.log(r.now, 100+j, pc, val)
				}
				pc++
				switch s.act {
				case opNotify:
					sigs[s.x].notify(len(sigs[s.x].waiters))
				case opAfterPut:
					r.schedule(nil, r.now+s.d, 0, func() { qs[s.x].deliver(100 + j) })
				case opFire:
					evs[s.x].fire()
				}
				switch s.end {
				case 0:
					d.kickWait = true
				case 1:
					r.schedule(&d.p, r.now+s.d, wakeTimer, nil)
					d.kickWait = true
					if s.d > 0 {
						d.deadline = r.now + s.d
					}
				case 2:
					r.sleep(&d.p, s.d)
				case 3:
					sigs[s.x].waiters = append(sigs[s.x].waiters, &d.p)
				default:
					if e := evs[s.x]; !e.fired {
						e.waiters = append(e.waiters, &d.p)
						return
					}
					r.inline++
					continue
				}
				return
			}
		}
		r.schedule(&d.p, r.now, wakeStart, nil)
	}
	for i, ops := range pr.procs {
		p := &refProc{}
		pc, blocked := 0, false
		deadline := Time(-1) // of the GetTimeout in progress, -1 between them
		p.run = func(tag int32) {
			if blocked {
				blocked = false
				switch o := ops[pc]; o.kind {
				case opSleep:
					tr.log(r.now, i, pc, 0)
					pc++
				case opWaitSig:
					val := 1
					if tag != wakeEvent {
						sigs[o.x].remove(p)
						val = 0
					}
					tr.log(r.now, i, pc, val)
					pc++
				case opGetTO:
					if q := qs[o.x]; tag != wakeEvent {
						q.ready.remove(p)
						if len(q.items) == 0 {
							tr.log(r.now, i, pc, -1)
							pc++
							deadline = -1
						} // else an item raced in at the deadline
					}
				} // opGet and a woken GetTimeout look at the queue again
			}
			for ; pc < len(ops); pc++ {
				o, val := ops[pc], 0
				switch o.kind {
				case opSleep:
					r.sleep(p, o.d)
					blocked = true
					return
				case opAfter:
					r.schedule(nil, r.now+o.d, 0, timer(o.x))
				case opAfterPut:
					r.schedule(nil, r.now+o.d, 0, func() { qs[o.x].deliver(i) })
				case opGet:
					q := qs[o.x]
					if len(q.items) == 0 {
						q.ready.waiters = append(q.ready.waiters, p)
						p.in = inGet
						blocked = true
						return
					}
					val = q.take()
				case opGetTO:
					q := qs[o.x]
					if deadline < 0 {
						deadline = r.now + o.d
					}
					if len(q.items) > 0 {
						val = q.take()
					} else if remain := deadline - r.now; remain > 0 {
						q.ready.waiters = append(q.ready.waiters, p)
						p.in = inGetTO
						r.schedule(p, r.now+remain, wakeTimer, nil)
						blocked = true
						return
					} else {
						val = -1
					}
					deadline = -1
				case opWaitSig:
					sigs[o.x].waiters = append(sigs[o.x].waiters, p)
					r.schedule(p, r.now+o.d, wakeTimer, nil)
					blocked = true
					return
				case opNotify:
					sigs[o.x].notify(len(sigs[o.x].waiters))
				case opKick:
					daemons[o.x].kick(r)
				case opStop:
					r.stopped = true
				case opFire:
					evs[o.x].fire()
				}
				tr.log(r.now, i, pc, val)
			}
		}
		r.schedule(p, r.now, wakeStart, nil)
	}
	point := func(ran int) {
		next, pending := r.nextEventTime()
		tr.Points = append(tr.Points, checkpoint{ran, len(tr.Log), r.now, r.skipped, r.seq, r.dispatched, r.jumps, r.queued(), next, pending})
	}
	point(0)
	for _, s := range pr.driver {
		if s.inject {
			r.schedule(nil, r.now+s.d, 0, timer(0))
		}
		next, pending := r.nextEventTime()
		point(r.runUntil(s.limitFor(r.now, next, pending)))
	}
	point(r.runUntil(maxTime))
	point(r.runUntil(maxTime))
	return tr, r
}

// scheduleCoverage counts, over the programs checked, the cases they are there
// to produce.
type scheduleCoverage struct {
	programs, dispatches, taken, folded, stale, jumps, inline, cancelled uint64
	timedOut, timedTook, far, tierTies                                   uint64
	foldedIn                                                             [inKinds]uint64
}

// checkSchedule runs the program data encodes on k twice, a Reset before each
// run, and on the reference, and fails on the first difference.
func checkSchedule(t *testing.T, k *Kernel, data []byte, cov *scheduleCoverage) {
	t.Helper()
	pr := newProgram(data)
	want, r := runOnReference(pr)
	for run := 0; run < 2; run++ {
		k.Reset(1)
		got := runOnKernel(k, pr)
		for i := range want.Points {
			if got.Points[i] != want.Points[i] {
				t.Fatalf("run %d of %x: after driver step %d of %+v\nkernel    %+v\nreference %+v", run, data, i, pr.driver, got.Points[i], want.Points[i])
			}
		}
		if !reflect.DeepEqual(got.Log, want.Log) {
			t.Fatalf("run %d of %x: dispatch log\nkernel    %v\nreference %v", run, data, got.Log, want.Log)
		}
	}
	cov.programs++
	cov.dispatches += r.dispatched
	cov.taken += r.taken
	cov.folded += r.folds
	cov.cancelled += r.cancelled
	cov.stale += r.stale
	cov.jumps += r.jumps
	cov.inline += r.inline
	cov.timedOut += r.timedOut
	cov.timedTook += r.timedTook
	cov.far += r.far
	cov.tierTies += r.tierTies
	for i, n := range r.foldsIn {
		cov.foldedIn[i] += n
	}
}

// TestKernelScheduleMatchesOneQueue checks 2 500 seeded random programs on one
// kernel, so each also runs over what the one before left parked, armed and
// stale.
func TestKernelScheduleMatchesOneQueue(t *testing.T) {
	k := NewKernel(1)
	defer k.Close()
	rng := rand.New(rand.NewSource(24))
	var cov scheduleCoverage
	data := make([]byte, 320)
	for i := 0; i < 2500; i++ {
		rng.Read(data)
		checkSchedule(t, k, data[:rng.Intn(len(data)+1)], &cov)
	}
	t.Logf("%+v", cov)
	if cov.dispatches < 10*cov.programs || cov.taken < cov.programs || 4*cov.folded < cov.programs ||
		2*cov.stale < cov.programs || 2*cov.jumps < cov.programs || 8*cov.inline < cov.programs ||
		16*cov.cancelled < cov.programs || 64*cov.timedOut < cov.programs || 64*cov.timedTook < cov.programs ||
		cov.far < cov.programs || 16*cov.tierTies < cov.programs {
		t.Fatalf("the programs no longer cover what they are for: %+v", cov)
	}
}

// TestScheduleSeeds decodes the committed FuzzKernelSchedule corpus through
// checkSchedule and holds each program to what it is kept for: seed-fold's
// deliveries wake a daemon in Take and a process in GetTimeout in place,
// seed-mixed, full-sized, takes a sleep on the spot, folds a delivery, drops a
// stale wake-up, jumps the clock and pops an instant both tiers of the future
// queue hold, seed-timed's daemon TakeTimeout waits end at their deadline and
// with an item, and seed-kick's kick takes a WaitKickTimeout deadline due
// later out of the queue.
func TestScheduleSeeds(t *testing.T) {
	for _, c := range []struct {
		name string
		ok   func(c scheduleCoverage) bool
	}{
		{"seed-fold", func(c scheduleCoverage) bool { return c.foldedIn[inTake] > 0 && c.foldedIn[inGetTO] > 0 }},
		{"seed-mixed", func(c scheduleCoverage) bool {
			return c.dispatches >= 10 && c.taken > 0 && c.folded > 0 && c.stale > 0 && c.jumps > 0 &&
				c.far > 0 && c.tierTies > 0
		}},
		{"seed-timed", func(c scheduleCoverage) bool { return c.timedOut > 0 && c.timedTook > 0 }},
		{"seed-kick", func(c scheduleCoverage) bool { return c.cancelled > 0 }},
	} {
		t.Run(c.name, func(t *testing.T) {
			raw, err := os.ReadFile("testdata/fuzz/FuzzKernelSchedule/" + c.name)
			if err != nil {
				t.Fatal(err)
			}
			lit, ok := strings.CutPrefix(strings.TrimSpace(string(raw)), "go test fuzz v1\n[]byte(")
			data, err := strconv.Unquote(strings.TrimSuffix(lit, ")"))
			if !ok || err != nil {
				t.Fatalf("not a one-[]byte corpus file: %v", err)
			}
			k := NewKernel(1)
			defer k.Close()
			var cov scheduleCoverage
			checkSchedule(t, k, []byte(data), &cov)
			t.Logf("%+v", cov)
			if !c.ok(cov) {
				t.Errorf("the program no longer covers what it is kept for: %+v", cov)
			}
		})
	}
}

// FuzzKernelSchedule is the same check on the fuzzer's programs.
func FuzzKernelSchedule(f *testing.F) {
	// One process, one Sleep(0). testdata/fuzz holds seed-mixed, a
	// full-sized program, seed-fold, whose deliveries wake a daemon in Take
	// and a process in GetTimeout, seed-timed, whose daemon TakeTimeout waits
	// time out and take an item, and seed-kick, whose kick takes a later
	// deadline out of the queue (TestScheduleSeeds checks all four).
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		k := NewKernel(1)
		defer k.Close()
		checkSchedule(t, k, data, &scheduleCoverage{})
	})
}
