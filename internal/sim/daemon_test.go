package sim

import (
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

// A process that parks behind a daemon activation runs the step on its own
// stack, and fires a timer ahead of it there too; Stop called from either
// still hands control back to the driver before anything else runs — also
// when the parking process stands three deep on the resume stack, where every
// level below it has to yield in turn.
func TestStopFromInlineDaemonStepReturnsToDriver(t *testing.T) {
	for _, mode := range []string{"daemon", "timer"} {
		for _, depth := range []int{1, 3} {
			k := NewKernel(1)
			inPark := false
			stoppedAt := 0
			otherRan := false
			var finished Time = -1
			stop := func() {
				buf := make([]byte, 4096)
				inPark = strings.Contains(string(buf[:runtime.Stack(buf, false)]), "(*Proc).park")
				stoppedAt = resumeStackDepth(t, k)
				k.Stop()
			}
			chain(k, depth, func(level int, p *Proc) {
				if level < depth {
					p.Sleep(20)
					return
				}
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
			requireStackUnwound(t, k)
			if !inPark || stoppedAt != depth {
				t.Fatalf("%s/%d: ran inside a parking process: %v, at depth %d", mode, depth, inPark, stoppedAt)
			}
			if otherRan || finished != -1 || k.Now() != 0 {
				t.Fatalf("%s/%d: Stop did not return at once: otherRan=%v finished=%v now=%v", mode, depth, otherRan, finished, k.Now())
			}
			k.Run()
			if !otherRan || finished != 10 {
				t.Fatalf("%s/%d: resumed run: otherRan=%v finished=%v, want true 10", mode, depth, otherRan, finished)
			}
			k.Close()
		}
	}
}
