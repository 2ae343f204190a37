package sim

import (
	"fmt"
	"reflect"
	"runtime"
	"strings"
	"testing"
)

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

// An owner holding its daemon by value starts it again once it has exited.
// While the last run is live, or kicked with the kick still queued, the
// restart panics; the kick took the run's deadline out of the queue, so once
// the kick has gone by the daemon starts over under a fresh id and a name
// formatted afresh, and nothing of the first run steps the second.
func TestStartDaemonReusesAnExitedDaemon(t *testing.T) {
	k := NewKernel(1)
	defer k.Close()
	var o struct {
		d     Daemon
		run   int
		n     int // steps of the current run
		steps []string
	}
	name := func() string { return fmt.Sprintf("svc-%d", o.run) }
	step := func(d *Daemon) {
		o.n++
		o.steps = append(o.steps, fmt.Sprintf("%d@%d", o.run, int64(d.Now())))
		switch {
		case o.n > 1:
			d.Exit()
		case o.run == 1:
			d.WaitKickTimeout(10)
		default:
			d.WaitKick()
		}
	}
	restart := func() (panicked bool) {
		defer func() { panicked = recover() != nil }()
		k.StartDaemon(&o.d, name, step)
		return false
	}
	o.run = 1
	k.StartDaemon(&o.d, name, step)
	first := o.d.p.id
	k.Go("owner", func(p *Proc) {
		p.Sleep(2)
		if !restart() {
			t.Error("restart of a live daemon did not panic")
		}
		o.d.Kick() // the first run exits at 2, and its deadline at 10 leaves the queue
		if !restart() {
			t.Error("restart with the kick pending did not panic")
		}
		p.Sleep(1)
		o.run, o.n = 2, 0
		if restart() {
			t.Fatal("restart of an exited daemon with nothing pending panicked")
		}
		p.Sleep(1)
		if b := k.Blocked(); !reflect.DeepEqual(b, []string{"svc-2"}) || o.d.p.id == first {
			t.Errorf("second run blocked as %v with id %d (first %d), want [svc-2] under a fresh id", b, o.d.p.id, first)
		}
		o.d.Kick()
	})
	k.Run()
	if want := []string{"1@0", "1@2", "2@3", "2@4"}; !reflect.DeepEqual(o.steps, want) {
		t.Fatalf("steps %v, want %v", o.steps, want)
	}
	if k.ProcCount() != 0 {
		t.Fatalf("%d processes left", k.ProcCount())
	}
}

// TestKickLeavesOnlyLiveDeadlines: a kick takes a WaitKickTimeout deadline due
// later out of the queue, and Queued stops counting it, so the wake-up the kick
// queues leaves Queued where it was. One due at the kick's instant is the
// wake-up, so the kick queues nothing. Either way the daemon steps once, at the
// instant it would have, and the clock never visits the cancelled deadline.
func TestKickLeavesOnlyLiveDeadlines(t *testing.T) {
	k := NewKernel(1)
	defer k.Close()
	var steps []Time
	d := k.GoDaemon("svc", func(d *Daemon) {
		steps = append(steps, d.Now())
		switch len(steps) {
		case 1, 2:
			d.WaitKickTimeout(5)
		default:
			d.Exit()
		}
	})
	var queued, heap []int
	kick := func() {
		q, h := k.Queued(), k.future.len()
		d.Kick()
		queued = append(queued, int(k.Queued()-q))
		heap = append(heap, k.future.len()-h)
	}
	k.Go("kicker", func(p *Proc) {
		p.Sleep(2)
		kick()     // the deadline at 5 leaves the heap; the kick's wake-up goes in the ring
		p.Sleep(5) // at 7, ahead of the second deadline, which is due now
		kick()
	})
	k.Run()
	if want := []Time{0, 2, 7}; !reflect.DeepEqual(steps, want) {
		t.Fatalf("steps at %v, want %v", steps, want)
	}
	if want := []int{0, 0}; !reflect.DeepEqual(queued, want) {
		t.Fatalf("the kicks moved Queued by %v, want %v", queued, want)
	}
	if want := []int{-1, 0}; !reflect.DeepEqual(heap, want) {
		t.Fatalf("the kicks moved the heap by %v, want %v", heap, want)
	}
	if k.Now() != 7 || k.future.len() != 0 {
		t.Fatalf("ended at %v with %d activations queued, want 7 and none", k.Now(), k.future.len())
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

// A kick supersedes the armed deadline: the deadline leaves the queue and is
// neither run nor counted.
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

// A daemon step and a timer run on RunUntil's stack, never inside a parking
// process, and Stop called from either returns from the run before anything
// else runs.
func TestStopFromInlineDaemonStepReturnsToDriver(t *testing.T) {
	for _, mode := range []string{"daemon", "timer"} {
		k := NewKernel(1)
		underRunUntil := false
		otherRan := false
		var finished Time = -1
		stop := func() {
			buf := make([]byte, 4096)
			stack := string(buf[:runtime.Stack(buf, false)])
			underRunUntil = strings.Contains(stack, "(*Kernel).RunUntil") && !strings.Contains(stack, "(*Proc).park")
			k.Stop()
		}
		k.Go("parker", func(p *Proc) {
			if mode == "timer" {
				k.After(0, stop)
			} else {
				k.GoDaemon("d", func(d *Daemon) {
					stop()
					d.WaitKick()
				})
			}
			k.Go("other", func(p *Proc) { otherRan = true })
			p.Sleep(10)
			finished = p.Now()
		})
		k.RunUntil(100)
		if !underRunUntil {
			t.Fatalf("%s: ran inside a parking process", mode)
		}
		if otherRan || finished != -1 || k.Now() != 0 {
			t.Fatalf("%s: Stop did not return at once: otherRan=%v finished=%v now=%v", mode, otherRan, finished, k.Now())
		}
		k.Run()
		if !otherRan || finished != 10 {
			t.Fatalf("%s: resumed run: otherRan=%v finished=%v, want true 10", mode, otherRan, finished)
		}
		k.Close()
	}
}

// Wait and WaitSignal end the step like any other wait: the next step runs
// when the event fires or the signal is notified, and a Kick meanwhile is
// ignored. A Wait on an event that has already fired continues the step from
// the same activation: no dispatch, no sequence number, nothing queued.
func TestDaemonWaitEventAndSignal(t *testing.T) {
	k := NewKernel(1)
	defer k.Close()
	ev, sig := k.NewEvent(), k.NewSignal()
	var steps []Time
	var inline [2]uint64 // Dispatched and seq when the step waited on the fired event
	d := k.GoDaemon("d", func(d *Daemon) {
		steps = append(steps, d.Now())
		switch len(steps) {
		case 1:
			d.Wait(ev)
		case 2:
			inline = [2]uint64{k.Dispatched(), k.seq}
			d.Wait(ev) // fired at 7: the third step runs at once
		case 3:
			if k.Dispatched() != inline[0] || k.seq != inline[1] {
				t.Errorf("a wait on a fired event dispatched %d and scheduled %d activations, want none",
					k.Dispatched()-inline[0], k.seq-inline[1])
			}
			d.WaitSignal(sig)
		default:
			d.Exit()
		}
	})
	k.Go("driver", func(p *Proc) {
		p.Sleep(5)
		d.Kick() // ignored: the daemon waits on the event
		p.Sleep(2)
		ev.Fire()
		p.Sleep(1)
		d.Kick() // ignored: the daemon waits on the signal
		p.Sleep(1)
		sig.Notify()
	})
	k.Run()
	if !reflect.DeepEqual(steps, []Time{0, 7, 7, 9}) {
		t.Fatalf("steps at %v, want [0 7 7 9]", steps)
	}
	if k.ProcCount() != 0 || k.Resumes() != 2 {
		t.Fatalf("ProcCount=%d Resumes=%d, want 0 and 2: the driver's start and its wake-up at 8, its other sleeps taken on the spot", k.ProcCount(), k.Resumes())
	}
}

// A daemon's Sleep whose wake-up is provably the next activation is taken on
// the spot, as a process's is: counted as dispatched, never queued.
func TestDaemonSleepTakenOnTheSpot(t *testing.T) {
	k := NewKernel(1)
	defer k.Close()
	var steps []Time
	k.GoDaemon("d", func(d *Daemon) {
		steps = append(steps, d.Now())
		if len(steps) < 3 {
			d.Sleep(4)
			return
		}
		d.Exit()
	})
	k.Run()
	if !reflect.DeepEqual(steps, []Time{0, 4, 8}) {
		t.Fatalf("steps at %v, want [0 4 8]", steps)
	}
	if k.Dispatched() != 3 || k.Queued() != 1 {
		t.Fatalf("Dispatched=%d Queued=%d, want 3 and 1 (only the start queued)", k.Dispatched(), k.Queued())
	}
}
