package sim

import (
	"container/heap"
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"testing"
)

func TestAfterFiresAtTime(t *testing.T) {
	k := NewKernel(1)
	var fired Time = -1
	k.Go("setup", func(p *Proc) {
		k.After(40, func() { fired = k.Now() })
	})
	k.Run()
	if fired != 40 {
		t.Fatalf("callback at %v, want 40us", fired)
	}
}

func TestAfterOrderingSameInstant(t *testing.T) {
	k := NewKernel(1)
	var order []int
	k.Go("setup", func(p *Proc) {
		k.After(10, func() { order = append(order, 1) })
		k.After(10, func() { order = append(order, 2) })
		k.After(5, func() { order = append(order, 0) })
	})
	k.Run()
	if !reflect.DeepEqual(order, []int{0, 1, 2}) {
		t.Fatalf("order = %v", order)
	}
}

func TestAfterNegativeDelayRunsNow(t *testing.T) {
	k := NewKernel(1)
	var fired Time = -1
	k.Go("setup", func(p *Proc) {
		p.Sleep(7)
		k.After(-5, func() { fired = k.Now() })
	})
	k.Run()
	if fired != 7 {
		t.Fatalf("callback at %v, want 7us", fired)
	}
}

func TestAfterFromCallback(t *testing.T) {
	k := NewKernel(1)
	var times []Time
	k.Go("setup", func(p *Proc) {
		k.After(10, func() {
			times = append(times, k.Now())
			k.After(10, func() { times = append(times, k.Now()) })
		})
	})
	k.Run()
	if !reflect.DeepEqual(times, []Time{10, 20}) {
		t.Fatalf("times = %v", times)
	}
}

func TestAfterInterleavedWithInsertions(t *testing.T) {
	// A later-inserted earlier timer must still fire first.
	k := NewKernel(1)
	var order []string
	k.Go("setup", func(p *Proc) {
		k.After(100, func() { order = append(order, "late") })
		p.Sleep(1)
		k.After(10, func() { order = append(order, "early") })
	})
	k.Run()
	if !reflect.DeepEqual(order, []string{"early", "late"}) {
		t.Fatalf("order = %v", order)
	}
}

func TestAfterIntoQueueWakesConsumer(t *testing.T) {
	k := NewKernel(1)
	q := NewQueue[int](k)
	var got int
	var at Time
	k.Go("cons", func(p *Proc) {
		got = q.Get(p)
		at = p.Now()
	})
	k.Go("prod", func(p *Proc) {
		k.After(33, func() { q.Put(9) })
	})
	k.Run()
	if got != 9 || at != 33 {
		t.Fatalf("got %d at %v, want 9 at 33us", got, at)
	}
}

// A timer armed from a timer callback for this instant fires in this
// instant, reusing the slot its parent vacated.
func TestAfterZeroFromCallbackFiresThisInstant(t *testing.T) {
	k := NewKernel(1)
	var times []Time
	k.After(5, func() {
		k.After(0, func() { times = append(times, k.Now()) })
		times = append(times, k.Now())
	})
	k.Go("late", func(p *Proc) { p.Sleep(6) })
	k.Run()
	if !reflect.DeepEqual(times, []Time{5, 5}) {
		t.Fatalf("times = %v, want [5 5]", times)
	}
	if len(k.tslots) != 1 {
		t.Fatalf("%d timer slots for one timer armed at a time", len(k.tslots))
	}
}

// A zero-delay timer is ordered like any activation scheduled now: behind
// what is already queued at this instant, ahead of what is scheduled later.
func TestAfterZeroFiresBehindQueuedActivations(t *testing.T) {
	k := NewKernel(1)
	var order []string
	k.Go("a", func(p *Proc) {
		k.Go("before", func(p *Proc) { order = append(order, "before") })
		k.After(0, func() { order = append(order, "timer") })
		k.Go("after", func(p *Proc) { order = append(order, "after") })
		p.Sleep(0)
		order = append(order, "a")
	})
	k.Run()
	if want := []string{"before", "timer", "after", "a"}; !reflect.DeepEqual(order, want) {
		t.Fatalf("order = %v, want %v", order, want)
	}
	// One event per fire, one per process wakeup: a twice, the others once.
	if k.Dispatched() != 5 {
		t.Fatalf("Dispatched = %d, want 5", k.Dispatched())
	}
}

// Timers and process wakeups due at one instant run in the order they were
// scheduled, whichever kind they are.
func TestTimersInterleaveWithWakeupsBySequence(t *testing.T) {
	k := NewKernel(1)
	var order []string
	k.Go("a", func(p *Proc) {
		k.After(10, func() { order = append(order, "t1") })
		k.Go("b", func(p *Proc) {
			p.Sleep(10) // scheduled after t1, before a's second sleep and t2
			order = append(order, "b")
		})
		p.Sleep(1)
		p.Sleep(9)
		order = append(order, "a")
		k.After(0, func() { order = append(order, "t3") })
	})
	k.Go("c", func(p *Proc) {
		p.Sleep(2)
		k.After(8, func() { order = append(order, "t2") })
	})
	k.Run()
	if want := []string{"t1", "b", "a", "t2", "t3"}; !reflect.DeepEqual(order, want) {
		t.Fatalf("order = %v, want %v", order, want)
	}
}

// A timer is not a process: a drained run leaves nothing behind.
func TestDrainedTimersLeaveNothingBlocked(t *testing.T) {
	k := NewKernel(1)
	fired := 0
	k.After(5, func() { fired++ })
	if at, ok := k.NextEventTime(); !ok || at != 5 {
		t.Fatalf("NextEventTime = %v,%v with a timer armed for 5", at, ok)
	}
	if n := k.Run(); n != 1 || fired != 1 {
		t.Fatalf("Run dispatched %d events and fired %d timers, want 1 and 1", n, fired)
	}
	if len(k.Blocked()) != 0 || k.ProcCount() != 0 {
		t.Fatalf("Blocked = %v ProcCount = %d, want none", k.Blocked(), k.ProcCount())
	}
	if _, ok := k.NextEventTime(); ok {
		t.Fatal("NextEventTime reports an event on a drained kernel")
	}
}

// Reset drops armed timers and hands their slots to the next run.
func TestResetDropsArmedTimersAndReusesSlots(t *testing.T) {
	k := NewKernel(1)
	for i := 0; i < 5; i++ {
		k.After(Time(100+i), func() { t.Error("timer armed before Reset fired after it") })
	}
	k.After(1, func() {})
	k.RunUntil(50)
	slots := cap(k.tslots)
	k.Reset(2)
	if len(k.tslots) != 0 || k.tfree != -1 {
		t.Fatalf("after Reset: %d slots in use, free head %d", len(k.tslots), k.tfree)
	}
	fired := 0
	for i := 0; i < 6; i++ {
		k.AfterPut(Time(100+i), nil, nil)
	}
	if len(k.tslots) != 6 || cap(k.tslots) != slots {
		t.Fatalf("re-arming after Reset: %d slots, capacity %d -> %d", len(k.tslots), slots, cap(k.tslots))
	}
	k.Reset(2)
	k.After(200, func() { fired++ })
	k.Run()
	if fired != 1 || k.Now() != 200 {
		t.Fatalf("fired = %d now = %v, want 1 at 200", fired, k.Now())
	}
}

// timerService is what the contract script drives: the kernel's own
// After/AfterPut, or the coroutine reference below.
type timerService interface {
	After(d Time, fn func())
	AfterPut(d Time, q *Queue[any], msg any)
}

// refEntry is one deferred action of the reference service.
type refEntry struct {
	at  Time
	seq uint64
	fn  func()
	q   *Queue[any]
	msg any
}

// refHeap orders the reference service's entries by (deadline, registration
// sequence) through container/heap.
type refHeap []refEntry

func (h refHeap) Len() int      { return len(h) }
func (h refHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h refHeap) Less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}
func (h *refHeap) Push(x any) { *h = append(*h, x.(refEntry)) }
func (h *refHeap) Pop() any {
	old := *h
	e := old[len(old)-1]
	*h = old[:len(old)-1]
	return e
}

// coroTimers is the timer service written as a process over its own heap: a
// coroutine looping over a "kicked" flag, a Signal and WaitSignalTimeout. It
// is what the kernel's timers replaced, kept as the reference for what a
// timer service owes its callers whatever its mechanism.
type coroTimers struct {
	k       *Kernel
	heap    refHeap
	seq     uint64
	kick    *Signal
	kicked  bool
	started bool
}

func (t *coroTimers) After(d Time, fn func()) { t.push(d, refEntry{fn: fn}) }

func (t *coroTimers) AfterPut(d Time, q *Queue[any], msg any) {
	t.push(d, refEntry{q: q, msg: msg})
}

func (t *coroTimers) push(d Time, e refEntry) {
	if d < 0 {
		d = 0
	}
	t.seq++
	e.at = t.k.now + d
	e.seq = t.seq
	heap.Push(&t.heap, e)
	if !t.started {
		t.started = true
		t.k.Go("sim-timers", t.run)
		return
	}
	t.kicked = true
	t.kick.Notify()
}

func (t *coroTimers) run(p *Proc) {
	for {
		for len(t.heap) > 0 && t.heap[0].at <= p.Now() {
			e := heap.Pop(&t.heap).(refEntry)
			if e.fn != nil {
				e.fn()
			} else {
				e.q.Put(e.msg)
			}
		}
		if t.kicked {
			t.kicked = false
			continue
		}
		if len(t.heap) == 0 {
			p.WaitSignal(t.kick)
			continue
		}
		p.WaitSignalTimeout(t.kick, t.heap[0].at-p.Now())
	}
}

// delivery is one timer reaching its target: a callback running, or a
// process taking an AfterPut message out of its queue.
type delivery struct {
	At Time
	ID int
}

// scriptResult is everything the two timer services must agree on. The two
// differ in how timers interleave with process wakeups inside one instant
// (the reference fires a whole instant's timers from one activation of its
// service process), so the script keeps every process's timeline a function
// of its own random stream and of when — not in which order within an
// instant — its own timers fire, and the comparison is per process.
type scriptResult struct {
	Callbacks []delivery // every callback, sorted by (time, id)
	Steps     [][]Time   // per process: the instant each script step began
	Gets      [][]Time   // per process: the instant each Get returned
	Payloads  [][]int    // per process: the messages received, sorted
	Now       Time
	Blocked   []string
	Procs     int
}

// scriptCoverage counts the cases the script is there to produce, so a
// change to the generator cannot quietly stop covering them.
type scriptCoverage struct {
	zeroDelay, sameInstant, reentrant, parkedGet, spawned int
}

// scriptMode selects how the script is run: its timers through the kernel or
// through the coroutine reference, and the kernel driven by one Run or by
// RunUntil in 1-tick windows.
type scriptMode struct {
	reference, windowed bool
}

// scriptTrace is the run as the dispatch loop saw it, which the timer
// contract leaves open and TestWindowedRunLeavesScheduleAlone pins: every
// step, delivery and exit in the order it ran, and the kernel's counters.
type scriptTrace struct {
	Log     []string
	Events  uint64 // Dispatched
	Timers  uint64 // timers armed, each fired once by the end of the run
	Resumes uint64
}

// cbPlan is a callback drawn in advance from its process's random stream:
// when it fires it arms child and an AfterPut of -id to the process's queue.
type cbPlan struct {
	id, d int
	putD  int
	child *cbPlan
}

// runTimerScript drives a seeded random mix of After, AfterPut, Sleep,
// Queue.Get and short-lived child processes from four processes through the
// kernel's own timers or, with mode.reference set, through coroTimers. It
// fails the test if the run breaks the ordering rule on its own terms: timers
// due at one instant are delivered in registration order, callbacks overall
// and messages per queue.
func runTimerScript(t *testing.T, seed int64, mode scriptMode) (scriptResult, scriptCoverage, scriptTrace) {
	const procs, steps = 4, 120
	k := NewKernel(seed)
	defer k.Close()
	var svc timerService = k
	if mode.reference {
		svc = &coroTimers{k: k, kick: k.NewSignal()}
	}
	var trace scriptTrace
	k.SetTracer(func(at Time, proc, msg string) {
		trace.Log = append(trace.Log, fmt.Sprintf("%v %s %s", at, proc, msg))
	})
	res := scriptResult{
		Steps: make([][]Time, procs), Gets: make([][]Time, procs), Payloads: make([][]int, procs),
	}
	var cov scriptCoverage
	delays := []int{0, 0, 1, 2, 3, 5, 8}

	// Registration bookkeeping for the ordering rule.
	type reg struct {
		due Time
		n   int
	}
	regs := map[int]reg{}
	var lastPush Time = -1
	register := func(id, d int) {
		if d == 0 {
			cov.zeroDelay++
		}
		if lastPush == k.now {
			cov.sameInstant++
		}
		lastPush = k.now
		regs[id] = reg{due: k.now + Time(d), n: len(regs)}
	}
	// inOrder reports whether id may be delivered after prev.
	inOrder := func(prev, id int) bool {
		a, b := regs[prev], regs[id]
		return a.due < b.due || a.due == b.due && a.n < b.n
	}
	lastCB := 0

	for i := 0; i < procs; i++ {
		rng := rand.New(rand.NewSource(seed*31 + int64(i)))
		q := NewQueue[any](k)
		owed, got, ids, lastMsg := 0, 0, 0, 0
		newID := func() int { ids++; return (i+1)*100000 + ids }
		var plan func(depth int) *cbPlan
		plan = func(depth int) *cbPlan {
			pl := &cbPlan{id: newID(), d: delays[rng.Intn(len(delays))]}
			if depth < 3 && rng.Intn(3) == 0 {
				owed++
				pl.putD = delays[rng.Intn(len(delays))]
				pl.child = plan(depth + 1)
			}
			return pl
		}
		var arm func(pl *cbPlan)
		arm = func(pl *cbPlan) {
			register(pl.id, pl.d)
			svc.After(Time(pl.d), func() {
				if k.now != regs[pl.id].due {
					t.Errorf("seed %d: callback %d due %v ran at %v", seed, pl.id, regs[pl.id].due, k.now)
				}
				if lastCB != 0 && !inOrder(lastCB, pl.id) {
					t.Errorf("seed %d: callback %d ran after %d, against (deadline, registration) order", seed, pl.id, lastCB)
				}
				lastCB = pl.id
				res.Callbacks = append(res.Callbacks, delivery{k.now, pl.id})
				trace.Log = append(trace.Log, fmt.Sprintf("%v callback %d", k.now, pl.id))
				if pl.child != nil {
					cov.reentrant++
					arm(pl.child)
					register(-pl.id, pl.putD)
					svc.AfterPut(Time(pl.putD), q, -pl.id)
				}
			})
		}
		get := func(p *Proc) {
			if q.Len() == 0 {
				cov.parkedGet++
			}
			id := q.Get(p).(int)
			got++
			if p.Now() < regs[id].due {
				t.Errorf("seed %d: message %d due %v received at %v", seed, id, regs[id].due, p.Now())
			}
			if lastMsg != 0 && !inOrder(lastMsg, id) {
				t.Errorf("seed %d: p%d received %d after %d, against (deadline, registration) order", seed, i, id, lastMsg)
			}
			lastMsg = id
			res.Gets[i] = append(res.Gets[i], p.Now())
			res.Payloads[i] = append(res.Payloads[i], id)
			p.Tracef("got %d", id)
		}
		k.Go(fmt.Sprintf("p%d", i), func(p *Proc) {
			for s := 0; s < steps; s++ {
				res.Steps[i] = append(res.Steps[i], p.Now())
				p.Tracef("step %d", s)
				switch rng.Intn(6) {
				case 0:
					p.Sleep(Time(rng.Intn(4)))
				case 1:
					arm(plan(0))
				case 2:
					id, d := newID(), delays[rng.Intn(len(delays))]
					owed++
					register(id, d)
					svc.AfterPut(Time(d), q, id)
				case 3:
					if got < owed {
						get(p)
					}
				case 4:
					p.Sleep(Time(delays[rng.Intn(len(delays))]))
				case 5:
					cov.spawned++
					d := Time(delays[rng.Intn(len(delays))])
					k.Go(fmt.Sprintf("p%d.%d", i, s), func(c *Proc) {
						c.Sleep(d)
						c.Tracef("exit")
					})
				}
			}
			for got < owed {
				get(p)
			}
		})
	}
	if mode.windowed {
		for _, ok := k.NextEventTime(); ok; _, ok = k.NextEventTime() {
			k.RunUntil(k.Now() + 1)
		}
	} else {
		k.Run()
	}
	trace.Events, trace.Timers, trace.Resumes = k.Dispatched(), uint64(len(regs)), k.Resumes()
	sort.Slice(res.Callbacks, func(a, b int) bool {
		x, y := res.Callbacks[a], res.Callbacks[b]
		return x.At < y.At || x.At == y.At && x.ID < y.ID
	})
	for _, p := range res.Payloads {
		sort.Ints(p)
	}
	res.Now = k.Now()
	res.Procs = k.ProcCount()
	for _, name := range k.Blocked() {
		if mode.reference && name == "sim-timers" {
			res.Procs-- // the reference's service process is not part of the contract
			continue
		}
		res.Blocked = append(res.Blocked, name)
	}
	return res, cov, trace
}

// TestTimerContract holds the kernel's timers to the reference service on a
// random script: every callback runs exactly at its deadline, every process
// sees the same timeline and the same messages, and the run ends in the same
// state. How many events either spends on it is not part of the contract.
func TestTimerContract(t *testing.T) {
	var total scriptCoverage
	for seed := int64(1); seed <= 25; seed++ {
		want, _, _ := runTimerScript(t, seed, scriptMode{reference: true})
		got, cov, _ := runTimerScript(t, seed, scriptMode{})
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("seed %d: kernel timers differ from the coroutine reference:\nwant %+v\n got %+v", seed, want, got)
		}
		if len(got.Callbacks) == 0 || len(got.Gets[0]) == 0 {
			t.Fatalf("seed %d: script delivered nothing", seed)
		}
		total.zeroDelay += cov.zeroDelay
		total.sameInstant += cov.sameInstant
		total.reentrant += cov.reentrant
		total.parkedGet += cov.parkedGet
		total.spawned += cov.spawned
	}
	if total.zeroDelay == 0 || total.sameInstant == 0 || total.reentrant == 0 || total.parkedGet == 0 || total.spawned == 0 {
		t.Fatalf("script no longer covers every case: %+v", total)
	}
}
