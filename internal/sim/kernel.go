package sim

import (
	"fmt"
	"iter"
	"math/rand"
	"slices"
	"sort"
)

// maxTime is the largest representable virtual instant; Run executes with it
// as the limit.
const maxTime = Time(1<<62 - 1)

// DefaultFFHorizon is the quiescence horizon used by a fresh kernel: a clock
// jump of at least this size counts as an analytic fast-forward (see
// FastForwards). The horizon only affects the fast-forward accounting, never
// the schedule itself, so changing it cannot change simulation results.
const DefaultFFHorizon = Millisecond

// Kernel is a deterministic discrete-event executor. Processes created with
// Go run as coroutines (iter.Pull); the kernel enforces that exactly one
// process executes at any instant, and every blocking operation enters the
// kernel's dispatch loop, which advances the virtual clock to the next
// scheduled activation.
//
// Scheduling state is split in two for speed. Activations at a future instant
// live in a 4-ary min-heap ordered by (time, sequence) (actHeap). Activations
// at the *current* instant go to a plain FIFO ring instead: sequence numbers
// are monotone, so arrival order is (time, sequence) order, and the common
// case — a process yielding, a Put waking a Get, an event firing at now —
// costs O(1) with no heap traffic. Every ring entry is at k.now: schedule
// routes there only what is due now, and the clock moves only when the ring
// is empty. The next activation is read where it lies (frontDue): the heap's
// root while it is at the current instant — it was pushed while that instant
// was still in the future, so it predates every ring entry — then the ring's
// front, then the heap's root at a later instant. That is the single
// (time, sequence) order of one queue, which keeps runs bit-identical, and no
// activation is copied from one structure to the other on the way. A Sleep
// whose wake-up would be the very next activation is not queued at all
// (Proc.Sleep), nor is such a wake-up of a timer delivery's receiver (fire).
//
// There is one dispatch loop (dispatch), run by RunUntil on the caller's
// goroutine, and every activation runs on its stack: a timer (After,
// AfterPut: an activation with no process) fires there, a Daemon (a service
// loop that never blocks mid-body) steps there, and a process's wake-up
// resumes that process's coroutine until it parks again and yields back.
// DESIGN.md §12 has the rules.
//
// A Kernel is not safe for use from goroutines other than its own processes
// and the single goroutine that calls Run/RunUntil.
type Kernel struct {
	now        Time
	seq        uint64
	limit      Time
	future     actHeap
	nowQ       Ring[activation]
	dispatched uint64
	resumes    uint64
	queued     uint64
	folds      uint64 // deliveries whose receiver ran in place of its queued wake-up (fire)
	running    *Proc
	procs      map[*Proc]struct{}
	nextID     int
	rng        *rand.Rand
	tracer     func(t Time, proc, msg string)
	stopped    bool

	// Fast-forward accounting: jumps of >= ffHorizon over known-quiet
	// virtual time (see FastForwards). ffAt is the future instant whose jump
	// frontDue has counted while the clock has yet to reach it (its
	// activations so far were stale); it means nothing once now has caught
	// up.
	ffHorizon Time
	ffJumps   uint64
	ffSkipped Time
	ffAt      Time

	// evFree recycles pooled events (NewPooledEvent); kept across Reset so a
	// reused kernel skips the ramp-up allocations, like the heap and ring
	// backing arrays. evMade counts the pooled events made.
	evFree []*Event
	evMade int

	// tslots holds the payloads of armed timers; tfree heads the free list
	// threaded through the vacant slots, -1 when there is none (timer.go).
	tslots []timerSlot
	tfree  int32

	// unwinding is set while Reset or Close ends the live processes (unwind).
	unwinding bool
}

// activation is a pending wakeup of a process at a virtual instant. The epoch
// ties the activation to one park of the process: once the process has been
// woken (by any activation), activations from the same park become stale and
// are discarded when popped. An activation with no process is an armed timer
// and is never stale; its epoch field carries the index of its payload slot.
type activation struct {
	at    Time
	seq   uint64
	proc  *Proc
	epoch uint64
	tag   int32
}

// NewKernel returns a kernel whose clock starts at zero. The seed fixes the
// kernel's random stream (exposed via Rand) so that runs are reproducible.
func NewKernel(seed int64) *Kernel {
	return &Kernel{
		limit:     maxTime,
		procs:     make(map[*Proc]struct{}),
		rng:       rand.New(rand.NewSource(seed)),
		ffHorizon: DefaultFFHorizon,
		ffAt:      -1,
		tfree:     -1,
	}
}

// Reset returns the kernel to the state NewKernel(seed) would produce while
// keeping the event heap's, now-queue's, event pool's and timer slot table's
// backing arrays, so a worker that runs many simulations back to back stops
// paying the ramp-up allocations of each run.
// A reset kernel is indistinguishable from a fresh one: the clock, sequence
// counter, dispatch count, random stream and process table all start over,
// and the (time, sequence) dispatch order of the next run is bit-exact with
// what a new kernel would produce (regression-tested).
//
// Reset must only be called between runs — after Run/RunUntil has returned
// and before any new process is created. Processes a previous run left alive
// (parked at a RunUntil horizon, say, or spawned and never started) are
// unwound first (unwind); then their activations are discarded with the heap,
// and armed timers are dropped with them. Any installed tracer is removed.
func (k *Kernel) Reset(seed int64) {
	k.unwind("Reset")
	k.now = 0
	k.seq = 0
	k.limit = maxTime
	k.future.reset()
	k.nowQ.Reset()
	k.dispatched = 0
	k.resumes = 0
	k.queued = 0
	k.folds = 0
	clear(k.procs)
	k.nextID = 0
	k.rng = rand.New(rand.NewSource(seed))
	k.tracer = nil
	k.stopped = false
	k.ffHorizon = DefaultFFHorizon
	k.ffJumps = 0
	k.ffSkipped = 0
	k.ffAt = -1
	// The armed timers' activations went with the heap; release what their
	// slots held and start the table over in the same backing array.
	clear(k.tslots)
	k.tslots = k.tslots[:0]
	k.tfree = -1
}

// unwind ends every live process, so that the process table is empty and no
// coroutine of the kernel's is left. A daemon owns no coroutine and simply
// exits. The others go in id order: one parked mid-body is resumed into a
// panic that runs the body's defers and nothing else of it (park, Proc.body),
// one that never started has its body skipped. No activation is dispatched
// meanwhile — a park reached from a defer panics too — so what the defers can
// do is what a timer callback can: fire, notify, unlock, spawn (a process
// spawned here is unwound in the next round, never having run).
func (k *Kernel) unwind(caller string) {
	if k.running != nil {
		panic("sim: " + caller + " during an active run")
	}
	k.unwinding = true
	defer func() { k.running, k.unwinding = nil, false }()
	var live []*Proc
	for {
		live = live[:0]
		for p := range k.procs {
			if d := p.daemon; d != nil {
				d.state = daemonParked // a Kick from a defer below is ignored
				p.done = true
				delete(k.procs, p)
				continue
			}
			live = append(live, p)
		}
		if len(live) == 0 {
			return
		}
		slices.SortFunc(live, func(a, b *Proc) int { return a.id - b.id })
		for _, p := range live {
			k.running = p
			p.resume()
		}
	}
}

// Close ends the live processes (unwind). A process parked when a run
// returned holds a goroutine the garbage collector cannot reclaim, so whoever
// created a kernel calls Close when dropping it. The kernel remains usable.
func (k *Kernel) Close() { k.unwind("Close") }

// Now returns the current virtual time.
func (k *Kernel) Now() Time { return k.now }

// Rand returns the kernel's deterministic random stream.
func (k *Kernel) Rand() *rand.Rand { return k.rng }

// Dispatched returns the total number of activations dispatched over the
// kernel's lifetime: process wakeups and daemon steps (stale ones excluded)
// plus one per timer fired. It is the event count behind events/sec
// throughput reporting.
func (k *Kernel) Dispatched() uint64 { return k.dispatched }

// Resumes returns the number of wake-ups since NewKernel or Reset delivered
// by resuming a process's coroutine: each is one switch in and one back out.
func (k *Kernel) Resumes() uint64 { return k.resumes }

// Queued returns the number of activations since NewKernel or Reset that went
// through the heap or the ring: every wake-up, start and timer but the sleeps
// taken on the spot (Proc.Sleep), the delivery wake-ups run in place (fire)
// and the daemon deadlines a kick took out of the queue (Daemon.Kick).
func (k *Kernel) Queued() uint64 { return k.queued }

// SetTracer installs a trace callback invoked by Proc.Tracef. A nil tracer
// disables tracing.
func (k *Kernel) SetTracer(fn func(t Time, proc, msg string)) { k.tracer = fn }

// Stop makes Run return after the currently executing process parks. Pending
// activations are retained (a subsequent Run call would resume them).
func (k *Kernel) Stop() { k.stopped = true }

// SetFFHorizon sets the quiescence horizon for fast-forward accounting: a
// clock jump of at least d over known-quiet virtual time counts as one
// fast-forward. Nonpositive horizons count every nonzero jump. The horizon is
// observability only — it cannot change scheduling order or results.
func (k *Kernel) SetFFHorizon(d Time) {
	if d <= 0 {
		d = 1
	}
	k.ffHorizon = d
}

// FastForwards reports the analytic fast-forward counters: how many times the
// clock jumped at least the quiescence horizon in one step, and the total
// virtual time skipped by those jumps. A discrete-event kernel never grinds
// through idle virtual time — when no process is runnable before the next
// scheduled activation (and every device model is parked on its own wakeup),
// the interval in between is provably quiet and the clock moves wholesale.
// These counters make that behaviour measurable so idle-heavy scenarios can
// report a skip ratio and be validated against internal/analytic predictions.
func (k *Kernel) FastForwards() (jumps uint64, skipped Time) {
	return k.ffJumps, k.ffSkipped
}

// Go creates a new process named name executing fn and schedules its first
// activation at the current virtual time. It may be called before Run or from
// inside a running process. The process runs on a coroutine of its own: the
// body runs on first resume; control returns to the resumer whenever the
// process parks, and the coroutine ends when the body returns or is unwound.
func (k *Kernel) Go(name string, fn func(p *Proc)) *Proc {
	k.nextID++
	p := &Proc{k: k, id: k.nextID, name: name}
	k.procs[p] = struct{}{}
	p.resume, _ = iter.Pull(func(yield func(struct{}) bool) { p.run(fn, yield) })
	k.schedule(p, k.now, wakeStart)
	return p
}

// Wake tags distinguishing what woke a parked process.
const (
	wakeStart = iota
	wakeTimer
	wakeEvent
	wakeDeadline // a daemon's WaitKickTimeout deadline: the heap keeps its index
)

// schedule enqueues a wakeup of p at time at (which must be >= now).
func (k *Kernel) schedule(p *Proc, at Time, tag int32) {
	if at < k.now {
		panic(fmt.Sprintf("sim: scheduling %q in the past: %v < %v", p.Name(), at, k.now))
	}
	k.place(at, p, p.epoch, tag)
	p.pending++
}

// place queues a new activation at the instant at, stamped with the next
// sequence number: in the ring when that is the current instant, in the heap
// otherwise, written straight into the slot it claims there.
func (k *Kernel) place(at Time, p *Proc, epoch uint64, tag int32) {
	k.seq++
	k.queued++
	if at == k.now {
		a := k.nowQ.pushSlot()
		a.at, a.seq, a.proc, a.epoch, a.tag = at, k.seq, p, epoch, tag
		return
	}
	i := k.future.hole(at)
	a := &k.future.a[i]
	a.at, a.seq, a.proc, a.epoch, a.tag = at, k.seq, p, epoch, tag
	a.track(i)
}

// frontDue returns the next activation in (time, sequence) order where it
// lies, and whether that is the heap (its root) or the ring (its front); nil
// if none is due by the run limit. The caller reads it and then removes it
// with pop, before anything is placed. The heap's root at a later instant is
// next only once the ring is empty, and the interval between is then a
// quiescent gap the clock is about to jump over wholesale: it is counted when
// the root is first seen, which is not always when the clock moves (a stale
// root is dropped without moving it), so ffAt remembers the instant until the
// queue empties.
func (k *Kernel) frontDue() (*activation, bool) {
	if k.future.len() > 0 {
		if a := k.future.root(); a.at == k.now || k.nowQ.Len() == 0 {
			if a.at > k.limit {
				return nil, false
			}
			if a.at != k.ffAt {
				k.ffAt = a.at
				k.countJump(a.at - k.now)
			}
			return a, true
		}
	} else if k.nowQ.Len() == 0 {
		k.ffAt = -1
		return nil, false
	}
	if k.now > k.limit {
		return nil, false
	}
	return k.nowQ.front(), false
}

// countJump books a clock jump of gap over known-quiet virtual time as a
// fast-forward if it reaches the quiescence horizon.
func (k *Kernel) countJump(gap Time) {
	if gap >= k.ffHorizon {
		k.ffJumps++
		k.ffSkipped += gap
	}
}

// pop removes the activation frontDue returned.
func (k *Kernel) pop(inHeap bool) {
	if inHeap {
		k.future.drop()
	} else {
		k.nowQ.drop()
	}
}

// dispatch takes activations in (time, sequence) order and runs each on the
// caller's stack — RunUntil's: a timer fires, a daemon steps, a process's
// wake-up resumes its coroutine until it yields back. A delivery whose
// receiver's wake-up is provably next is followed by that receiver at once
// (Kernel.fire). It returns on Stop, or when nothing is due by the limit.
func (k *Kernel) dispatch() {
	for !k.stopped {
		a, inHeap := k.frontDue()
		if a == nil {
			return
		}
		q := a.proc
		if q == nil {
			at, slot := a.at, int32(a.epoch)
			k.pop(inHeap)
			if q = k.fire(at, slot); q == nil {
				continue
			}
		} else if q.done || a.epoch != q.epoch {
			k.pop(inHeap)
			q.pending-- // stale wakeup from an earlier park
			continue
		} else {
			q.pending--
			k.now = a.at
			q.wakeTag = a.tag
			k.pop(inHeap)
		}
		k.dispatched++
		k.running = q
		if q.daemon != nil {
			q.daemon.run()
		} else {
			k.resumes++
			q.resume()
		}
	}
}

// Run executes activations until none remain or Stop is called. It returns
// the number of activations dispatched.
func (k *Kernel) Run() int { return k.RunUntil(maxTime) }

// RunUntil executes activations with time <= limit. The clock never advances
// past the last dispatched activation; if the queue's head is beyond limit,
// the clock is set to limit and RunUntil returns. If processes remain blocked
// with no pending activation when the queue drains (a deadlock from the
// model's point of view) they are left parked; Blocked reports them.
func (k *Kernel) RunUntil(limit Time) int {
	k.stopped = false
	k.limit = limit
	start := k.dispatched
	k.dispatch()
	k.running = nil
	if !k.stopped && (k.future.len() > 0 || k.nowQ.Len() > 0) && k.now < limit {
		// The head activation is beyond the limit: the interval up to the
		// limit is known quiet, so the clock may advance to it wholesale.
		k.countJump(limit - k.now)
		k.now = limit
	}
	return int(k.dispatched - start)
}

// NextEventTime returns the instant of the earliest pending activation, or
// ok=false when the kernel is quiescent (no activation anywhere — parked
// processes waiting on external input do not count). The value is a
// conservative lower bound: a stale activation (from a park that has since
// been woken another way) reports its scheduled time even though dispatching
// it will be a no-op. That direction of error is safe for the one consumer
// this hook exists for — the shard coordinator's conservative window
// computation — which may only ever *under*-estimate a shard's horizon.
func (k *Kernel) NextEventTime() (Time, bool) {
	if k.nowQ.Len() > 0 {
		return k.now, true
	}
	if k.future.len() > 0 {
		return k.future.root().at, true
	}
	return 0, false
}

// Blocked returns the names of processes that are alive but have no pending
// activation — i.e. processes waiting on events that can no longer fire.
// Useful in tests to assert clean termination. The processes are named in id
// order and the names returned sorted, so diagnostics never leak
// map-iteration order (stringscheck maporder parity).
func (k *Kernel) Blocked() []string {
	var blocked []*Proc
	for p := range k.procs {
		if !p.done && p.pending == 0 && p.parked {
			blocked = append(blocked, p)
		}
	}
	slices.SortFunc(blocked, func(a, b *Proc) int { return a.id - b.id })
	names := make([]string, len(blocked))
	for i, p := range blocked {
		names[i] = p.Name()
	}
	sort.Strings(names)
	return names
}

// ProcCount returns the number of live processes.
func (k *Kernel) ProcCount() int { return len(k.procs) }
