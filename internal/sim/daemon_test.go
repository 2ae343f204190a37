package sim

import (
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"strings"
	"testing"
)

// timerService is what the equivalence script drives: the kernel's own
// daemon-backed After/AfterPut, or the coroutine reference below.
type timerService interface {
	After(d Time, fn func())
	AfterPut(d Time, q *Queue[any], msg any)
}

// coroTimers is the timer service written as a process: a coroutine looping
// over a "kicked" flag, a Signal and WaitSignalTimeout. It is the reference
// the daemon must reproduce activation for activation.
type coroTimers struct {
	k       *Kernel
	heap    heap4[timerEntry]
	seq     uint64
	kick    *Signal
	kicked  bool
	started bool
}

func (t *coroTimers) After(d Time, fn func()) { t.push(d, timerEntry{fn: fn}) }

func (t *coroTimers) AfterPut(d Time, q *Queue[any], msg any) {
	t.push(d, timerEntry{q: q, msg: msg})
}

func (t *coroTimers) push(d Time, e timerEntry) {
	if d < 0 {
		d = 0
	}
	t.seq++
	e.at = t.k.now + d
	e.seq = t.seq
	t.heap.push(e)
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
		for t.heap.len() > 0 && t.heap.peek().at <= p.Now() {
			e := t.heap.pop()
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
		if t.heap.len() == 0 {
			p.WaitSignal(t.kick)
			continue
		}
		p.WaitSignalTimeout(t.kick, t.heap.peek().at-p.Now())
	}
}

// scriptResult is everything the two timer services must agree on.
type scriptResult struct {
	Log        []string // tracer lines and callback deliveries, in execution order
	Delivered  []int    // timer ids in delivery order
	Dispatched uint64
	Seq        uint64
	Now        Time
	Blocked    []string
	Procs      int
}

// scriptCoverage counts the cases the script is there to produce, so a
// change to the generator cannot quietly stop covering them.
type scriptCoverage struct {
	zeroDelay, sameInstant, reentrant, kickAtDeadline int
}

// runTimerScript drives a seeded random mix of After, AfterPut, Sleep and
// Queue.Get from four processes through the kernel's own timers or, with
// reference set, through coroTimers. Coverage is counted on the former.
func runTimerScript(seed int64, reference bool) (scriptResult, scriptCoverage) {
	const procs, steps = 4, 120
	k := NewKernel(seed)
	var svc timerService = k
	if reference {
		svc = &coroTimers{k: k, kick: k.NewSignal()}
	}
	var res scriptResult
	var cov scriptCoverage
	k.SetTracer(func(t Time, proc, msg string) {
		res.Log = append(res.Log, fmt.Sprintf("%v %s %s", t, proc, msg))
	})
	// armedAt reports the deadline the timer daemon is parked on, if any.
	armedAt := func() (Time, bool) {
		if t := k.timers; t != nil && t.d.state == daemonKickWait && t.heap.len() > 0 {
			return t.heap.peek().at, true
		}
		return 0, false
	}
	var lastPush Time = -1
	nextID := 0
	notePush := func(d Time) int {
		if d == 0 {
			cov.zeroDelay++
		}
		if lastPush == k.now {
			cov.sameInstant++
		}
		lastPush = k.now
		if at, ok := armedAt(); ok && at == k.now {
			cov.kickAtDeadline++
		}
		nextID++
		return nextID
	}
	qs := make([]*Queue[any], procs)
	owed := make([]int, procs)
	for i := range qs {
		qs[i] = NewQueue[any](k)
	}
	delays := []Time{0, 0, 1, 2, 3, 5, 8}
	// after registers a callback that logs itself and, depth permitting,
	// re-enters the timer service from inside the timer context.
	var after func(rng *rand.Rand, depth int)
	after = func(rng *rand.Rand, depth int) {
		d := delays[rng.Intn(len(delays))]
		id := notePush(d)
		again := depth < 3 && rng.Intn(3) == 0
		target := rng.Intn(procs)
		svc.After(d, func() {
			res.Delivered = append(res.Delivered, id)
			res.Log = append(res.Log, fmt.Sprintf("%v cb %d", k.Now(), id))
			if again {
				cov.reentrant++
				after(rng, depth+1)
				owed[target]++
				svc.AfterPut(delays[rng.Intn(len(delays))], qs[target], -id)
			}
		})
	}
	for i := 0; i < procs; i++ {
		rng := rand.New(rand.NewSource(seed*31 + int64(i)))
		got := 0
		get := func(p *Proc) {
			v := qs[i].Get(p).(int)
			got++
			if v > 0 {
				res.Delivered = append(res.Delivered, v)
			}
			p.Tracef("got %d", v)
		}
		k.Go(fmt.Sprintf("p%d", i), func(p *Proc) {
			for s := 0; s < steps; s++ {
				switch rng.Intn(5) {
				case 0:
					p.Sleep(Time(rng.Intn(4)))
				case 1:
					after(rng, 0)
				case 2:
					j := rng.Intn(procs)
					d := delays[rng.Intn(len(delays))]
					owed[j]++
					svc.AfterPut(d, qs[j], notePush(d))
				case 3:
					if got < owed[i] {
						get(p)
					}
				case 4:
					p.Sleep(delays[rng.Intn(len(delays))])
					p.Tracef("woke")
				}
			}
			for got < owed[i] {
				get(p)
			}
		})
	}
	k.Run()
	res.Dispatched = k.Dispatched()
	res.Seq = k.seq
	res.Now = k.Now()
	res.Blocked = k.Blocked()
	res.Procs = k.ProcCount()
	return res, cov
}

// TestTimerDaemonMatchesCoroutineReference is the exact-emulation claim: the
// daemon-backed timer service and the coroutine loop it replaced produce the
// same tracer log, the same delivery order, the same dispatch count and the
// same final schedule sequence number on every seed.
func TestTimerDaemonMatchesCoroutineReference(t *testing.T) {
	var total scriptCoverage
	for seed := int64(1); seed <= 25; seed++ {
		want, _ := runTimerScript(seed, true)
		got, cov := runTimerScript(seed, false)
		if !reflect.DeepEqual(got, want) {
			for i := range want.Log {
				if i >= len(got.Log) || got.Log[i] != want.Log[i] {
					t.Fatalf("seed %d: logs diverge at line %d: coroutine %q, daemon %q",
						seed, i, want.Log[i], append(got.Log, "<end>")[i])
				}
			}
			want.Log, got.Log = nil, nil
			t.Fatalf("seed %d: daemon run differs from the coroutine reference:\nwant %+v\n got %+v",
				seed, want, got)
		}
		if len(got.Delivered) == 0 || got.Dispatched == 0 {
			t.Fatalf("seed %d: script delivered nothing", seed)
		}
		total.zeroDelay += cov.zeroDelay
		total.sameInstant += cov.sameInstant
		total.reentrant += cov.reentrant
		total.kickAtDeadline += cov.kickAtDeadline
	}
	if total.zeroDelay == 0 || total.sameInstant == 0 || total.reentrant == 0 || total.kickAtDeadline == 0 {
		t.Fatalf("script no longer covers every case: %+v", total)
	}
}

func TestDaemonKickDuringSleepIsIgnored(t *testing.T) {
	k := NewKernel(1)
	var steps []Time
	d := k.GoDaemon("d", func(d *Daemon) {
		steps = append(steps, d.Now())
		if len(steps) == 1 {
			d.Sleep(10)
			return
		}
		d.WaitKick()
	})
	k.Go("kicker", func(p *Proc) {
		p.Sleep(5)
		d.Kick()
	})
	k.Run()
	if !reflect.DeepEqual(steps, []Time{0, 10}) {
		t.Fatalf("steps at %v, want [0 10]: a kick must not cut a Sleep short", steps)
	}
}

func TestDaemonKickTwiceInOneInstantSchedulesOnce(t *testing.T) {
	k := NewKernel(1)
	steps := 0
	d := k.GoDaemon("d", func(d *Daemon) {
		steps++
		d.WaitKick()
	})
	k.Go("kicker", func(p *Proc) {
		p.Sleep(5)
		before := k.seq
		d.Kick()
		d.Kick()
		if k.seq != before+1 {
			t.Errorf("two kicks scheduled %d activations, want 1", k.seq-before)
		}
	})
	k.Run()
	if steps != 2 {
		t.Fatalf("daemon stepped %d times, want 2 (start, one kick)", steps)
	}
	// start + kick for the daemon, start + sleep for the kicker.
	if k.Dispatched() != 4 {
		t.Fatalf("Dispatched = %d, want 4", k.Dispatched())
	}
}

// A kick supersedes the armed deadline: the deadline's activation goes
// stale and is neither run nor counted.
func TestDaemonKickSupersedesDeadline(t *testing.T) {
	k := NewKernel(1)
	var steps []Time
	d := k.GoDaemon("d", func(d *Daemon) {
		steps = append(steps, d.Now())
		if len(steps) < 3 {
			d.WaitKickTimeout(10)
			return
		}
		d.WaitKick()
	})
	k.Go("kicker", func(p *Proc) {
		p.Sleep(4)
		d.Kick()
	})
	k.Run()
	if !reflect.DeepEqual(steps, []Time{0, 4, 14}) {
		t.Fatalf("steps at %v, want [0 4 14]", steps)
	}
	if k.Dispatched() != 5 {
		t.Fatalf("Dispatched = %d, want 5 (the stale deadline at 10 is not counted)", k.Dispatched())
	}
}

func TestDaemonExitLeavesProcessTable(t *testing.T) {
	k := NewKernel(1)
	d := k.GoDaemon("d", func(d *Daemon) {
		if d.Now() == 0 {
			d.WaitKick()
			return
		}
		d.Exit()
	})
	k.Run()
	if k.ProcCount() != 1 || !reflect.DeepEqual(k.Blocked(), []string{"d"}) {
		t.Fatalf("idle daemon: ProcCount=%d Blocked=%v, want 1 [d]", k.ProcCount(), k.Blocked())
	}
	k.Go("closer", func(p *Proc) {
		p.Sleep(3)
		d.Kick()
	})
	k.Run()
	if k.ProcCount() != 0 || len(k.Blocked()) != 0 {
		t.Fatalf("after Exit: ProcCount=%d Blocked=%v, want 0 []", k.ProcCount(), k.Blocked())
	}
	d.Kick() // an exited daemon ignores kicks
	if n := k.Run(); n != 0 {
		t.Fatalf("kick after Exit dispatched %d activations", n)
	}
	var none *Daemon
	none.Kick() // a service that never started
}

func TestDaemonStepMustWaitExactlyOnce(t *testing.T) {
	for name, step := range map[string]func(d *Daemon){
		"none":  func(d *Daemon) {},
		"twice": func(d *Daemon) { d.WaitKick(); d.Sleep(1) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: step did not panic", name)
				}
			}()
			k := NewKernel(1)
			k.GoDaemon("bad", step)
			k.Run()
		}()
	}
}

// An idle timer service shows up in Blocked like any parked process.
func TestIdleTimerDaemonIsBlocked(t *testing.T) {
	k := NewKernel(1)
	k.After(5, func() {})
	k.Run()
	if got := k.Blocked(); !reflect.DeepEqual(got, []string{"sim-timers"}) {
		t.Fatalf("Blocked = %v, want [sim-timers]", got)
	}
	if k.ProcCount() != 1 {
		t.Fatalf("ProcCount = %d, want 1", k.ProcCount())
	}
}

// A process that parks behind a daemon activation runs the step on its own
// stack; Stop called from there still hands control back to the driver
// before anything else runs.
func TestStopFromInlineDaemonStepReturnsToDriver(t *testing.T) {
	k := NewKernel(1)
	inPark := false
	otherRan := false
	var finished Time = -1
	k.Go("a", func(p *Proc) {
		k.After(0, func() {
			buf := make([]byte, 4096)
			inPark = strings.Contains(string(buf[:runtime.Stack(buf, false)]), "(*Proc).park")
			k.Stop()
		})
		k.Go("other", func(p *Proc) { otherRan = true })
		p.Sleep(10)
		finished = p.Now()
	})
	k.RunUntil(100)
	if !inPark {
		t.Fatal("the timer step did not run inside the parking process")
	}
	if otherRan || finished != -1 || k.Now() != 0 {
		t.Fatalf("Stop did not return at once: otherRan=%v finished=%v now=%v", otherRan, finished, k.Now())
	}
	k.Run()
	if !otherRan || finished != 10 {
		t.Fatalf("resumed run: otherRan=%v finished=%v, want true 10", otherRan, finished)
	}
}
