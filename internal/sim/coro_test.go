package sim

import (
	"fmt"
	"reflect"
	"runtime"
	"testing"
)

// A process per request must not cost a goroutine per finished request: a
// process's coroutine ends with its body, so the goroutines peak at the number
// of live processes and the run leaves none behind; Close ends the ones a
// horizon left parked, and the kernel runs on after it.
func TestFinishedProcessesEndTheirGoroutines(t *testing.T) {
	base := runtime.NumGoroutine()
	k := NewKernel(1)
	const cycles, live = 10000, 8
	peak := 0
	k.Go("spawner", func(p *Proc) {
		for i := 0; i < cycles; i++ {
			k.Go("req", func(p *Proc) { p.Sleep(live - 1) })
			p.Sleep(1)
			if n := runtime.NumGoroutine(); n > peak {
				peak = n
			}
		}
	})
	k.Run()
	// The spawner plus the requests in flight, and one of slack for a
	// request that has finished its sleep in the spawner's instant.
	if peak > base+live+2 {
		t.Fatalf("goroutines peaked at %d over a baseline of %d with %d processes live", peak, base, live+1)
	}
	if n := runtime.NumGoroutine(); k.ProcCount() != 0 || n > base {
		t.Fatalf("after a drained run: ProcCount=%d, %d goroutines over a baseline of %d", k.ProcCount(), n, base)
	}
	k.Go("parked", func(p *Proc) { p.Sleep(100) })
	k.RunUntil(k.Now() + 10)
	k.Close()
	k.Close() // idempotent
	if n := runtime.NumGoroutine(); n > base {
		t.Fatalf("%d goroutines after Close, %d before the run", n, base)
	}
	ran := false
	k.Go("again", func(p *Proc) { ran = true })
	k.Run()
	if !ran || runtime.NumGoroutine() > base {
		t.Fatalf("after Close: ran=%v goroutines=%d, want true %d", ran, runtime.NumGoroutine(), base)
	}
}

func TestCloseDuringRunPanics(t *testing.T) {
	k := NewKernel(1)
	k.Go("p", func(p *Proc) {
		defer func() {
			if recover() == nil {
				t.Error("Close during an active run did not panic")
			}
		}()
		k.Close()
	})
	k.Run()
	k.Close()
}

// enders are the two ways a kernel's owner ends a run's leftovers.
var enders = []struct {
	name string
	end  func(k *Kernel)
}{
	{"Reset", func(k *Kernel) { k.Reset(2) }},
	{"Close", func(k *Kernel) { k.Close() }},
}

// Reset and Close unwind a process wherever it is parked: nothing after the
// park runs, every defer runs once, and its goroutine ends.
func TestResetAndCloseUnwindParkedProcesses(t *testing.T) {
	parks := []struct {
		name string
		park func(k *Kernel, p *Proc)
	}{
		{"Sleep", func(k *Kernel, p *Proc) { p.Sleep(100) }},
		{"Wait", func(k *Kernel, p *Proc) { p.Wait(k.NewEvent()) }},
		{"WaitSignal", func(k *Kernel, p *Proc) { p.WaitSignal(new(Signal)) }},
		{"WaitSignalTimeout", func(k *Kernel, p *Proc) { p.WaitSignalTimeout(new(Signal), 100) }},
		{"Queue.Get", func(k *Kernel, p *Proc) { NewQueue[int](k).Get(p) }},
	}
	base := runtime.NumGoroutine()
	for _, pk := range parks {
		for _, e := range enders {
			k := NewKernel(1)
			deferred, after := 0, false
			k.Go("victim", func(p *Proc) {
				defer func() { deferred++ }()
				func() {
					defer func() { deferred++ }()
					pk.park(k, p)
				}()
				after = true
			})
			k.RunUntil(10)
			if k.ProcCount() != 1 || after {
				t.Fatalf("%s: victim not parked at the horizon", pk.name)
			}
			e.end(k)
			if after || deferred != 2 || k.ProcCount() != 0 {
				t.Errorf("%s/%s: ran on = %v, defers run = %d, ProcCount = %d; want false, 2, 0",
					pk.name, e.name, after, deferred, k.ProcCount())
			}
			if n := runtime.NumGoroutine(); n > base {
				t.Fatalf("%s/%s: %d goroutines after Close, %d before", pk.name, e.name, n, base)
			}
		}
	}
}

// A process spawned and never started is unwound without its body running,
// and the kernel serves the next process like any other.
func TestUnwindSkipsNeverStartedProcess(t *testing.T) {
	for _, e := range enders {
		k := NewKernel(1)
		k.Go("never", func(p *Proc) { t.Errorf("%s: a never-started body ran", e.name) })
		e.end(k)
		if k.ProcCount() != 0 {
			t.Errorf("%s: ProcCount = %d after unwinding a never-started process", e.name, k.ProcCount())
		}
		ran := false
		k.Go("next", func(p *Proc) { p.Sleep(1); ran = true })
		k.Run()
		if !ran {
			t.Errorf("%s: the process after the unwinding did not run", e.name)
		}
		k.Close()
	}
}

// Unwinding dispatches nothing. A defer that parks gets the panic again — even
// with a wake-up it has just queued due at this very instant — the defers
// registered before it still run, and a defer that spawns has its process
// ended unstarted.
func TestUnwindingDefersCannotDispatch(t *testing.T) {
	for _, e := range enders {
		k := NewKernel(1)
		wake, never := k.NewEvent(), k.NewEvent()
		var trail []string
		k.Go("victim", func(p *Proc) {
			defer func() { trail = append(trail, "outer") }()
			defer func() {
				k.Go("orphan", func(p *Proc) { t.Error("a process spawned while unwinding ran") })
			}()
			defer func() {
				p.Wait(never)
				trail = append(trail, "past Wait")
			}()
			defer func() {
				wake.Fire()
				p.Sleep(0)
				trail = append(trail, "past Sleep")
			}()
			p.Sleep(100)
		})
		k.Go("bystander", func(p *Proc) {
			p.Wait(wake)
			t.Error("a bystander was dispatched during unwinding")
		})
		k.RunUntil(5)
		dispatched := k.Dispatched()
		e.end(k)
		if !reflect.DeepEqual(trail, []string{"outer"}) {
			t.Errorf("%s: defers left %v, want [outer]", e.name, trail)
		}
		if k.ProcCount() != 0 {
			t.Errorf("%s: ProcCount = %d", e.name, k.ProcCount())
		}
		if e.name == "Close" && k.Dispatched() != dispatched {
			t.Errorf("Close dispatched %d activations", k.Dispatched()-dispatched)
		}
		// What the defers queued is stale: a closed kernel runs on without it.
		k.Run()
		k.Close()
	}
}

// Only the unwinding's own panic ends in the coroutine: any other value, raised
// by a defer on the way out, reaches whoever called Reset or Close.
func TestUnwindPropagatesRealPanic(t *testing.T) {
	for _, e := range enders {
		k := NewKernel(1)
		k.Go("victim", func(p *Proc) {
			defer func() { panic("boom") }()
			p.Sleep(100)
		})
		k.RunUntil(1)
		var got any
		func() {
			defer func() { got = recover() }()
			e.end(k)
		}()
		if got != "boom" {
			t.Errorf("%s surfaced %v, want boom", e.name, got)
		}
	}
}

// Close ends daemons with the processes: none is left in the table, and what
// they had armed is stale when the kernel runs again.
func TestCloseEndsDaemons(t *testing.T) {
	k := NewKernel(1)
	steps := 0
	var d *Daemon
	d = k.GoDaemon("ticker", func(d *Daemon) { steps++; d.Sleep(10) })
	kicked := k.GoDaemon("kicked", func(d *Daemon) { steps++; d.WaitKick() })
	k.Go("kicker", func(p *Proc) {
		defer kicked.Kick()
		p.Sleep(100)
	})
	k.RunUntil(25)
	before := steps
	k.Close()
	if k.ProcCount() != 0 {
		t.Fatalf("ProcCount = %d after Close", k.ProcCount())
	}
	d.Kick()
	k.Run()
	if steps != before {
		t.Fatalf("daemons stepped %d times after Close", steps-before)
	}
}

// chain starts depth nested processes, each spawning the next and then
// running its own part of body(level, p).
func chain(k *Kernel, depth int, body func(level int, p *Proc)) {
	var spawn func(level int)
	spawn = func(level int) {
		k.Go(fmt.Sprintf("l%d", level), func(p *Proc) {
			if level < depth {
				spawn(level + 1)
			}
			body(level, p)
		})
	}
	spawn(1)
}

// Where a run is cut is not part of the schedule: the random script logs the
// same run under one Run as under RunUntil in 1-tick windows, and resumes no
// more than once per process wake-up on either.
func TestWindowedRunLeavesScheduleAlone(t *testing.T) {
	var total scriptCoverage
	for seed := int64(1); seed <= 25; seed++ {
		_, cov, run := runTimerScript(t, seed, scriptMode{})
		_, _, win := runTimerScript(t, seed, scriptMode{windowed: true})
		if !reflect.DeepEqual(run.Log, win.Log) {
			t.Fatalf("seed %d: 1-tick windows changed the run:\n  run: %v\nwindows: %v", seed, run.Log, win.Log)
		}
		if run.Events != win.Events || run.Timers != win.Timers {
			t.Fatalf("seed %d: events %d vs %d, timers %d vs %d", seed, run.Events, win.Events, run.Timers, win.Timers)
		}
		wakeups := run.Events - run.Timers
		if run.Resumes > wakeups || win.Resumes > wakeups {
			t.Fatalf("seed %d: %d and %d resumes for %d process wake-ups", seed, run.Resumes, win.Resumes, wakeups)
		}
		total.spawned += cov.spawned
	}
	if total.spawned == 0 {
		t.Fatalf("script no longer spawns processes: %+v", total)
	}
}

// threeDue is a scenario whose three processes are all due at t = 5, where
// cut (if any) runs in the last one's body; the log is what an interrupted
// and resumed run must reproduce.
func threeDue(k *Kernel, cut func()) *[]string {
	log := new([]string)
	k.SetTracer(func(at Time, proc, msg string) {
		*log = append(*log, fmt.Sprintf("%v %s %s", at, proc, msg))
	})
	for level := 1; level <= 3; level++ {
		k.Go(fmt.Sprintf("l%d", level), func(p *Proc) {
			p.Sleep(5)
			if level == 3 && cut != nil {
				cut()
			}
			p.Tracef("woke")
			p.Sleep(Time(10 * (4 - level)))
			p.Tracef("done")
		})
	}
	return log
}

// Stop from the last of three processes due at one instant, and a limit that
// falls once all three have woken, both return from the run, and the
// run picks up where it left off.
func TestStopAndLimitWithSeveralDue(t *testing.T) {
	ref := NewKernel(1)
	want := threeDue(ref, nil)
	ref.Run()
	ref.Close()

	k := NewKernel(1)
	got := threeDue(k, k.Stop)
	k.Run()
	if k.Now() != 5 || len(*got) != 3 { // Stop takes effect when l3 next parks
		t.Fatalf("Stop: run returned at %v having logged %v", k.Now(), *got)
	}
	k.Run()
	if !reflect.DeepEqual(*got, *want) {
		t.Fatalf("run resumed after Stop logged\n %v, want\n %v", *got, *want)
	}
	k.Close()

	k = NewKernel(1)
	got = threeDue(k, nil)
	k.RunUntil(7) // all three have woken and sleep past the limit
	if k.Now() != 7 || len(*got) != 3 {
		t.Fatalf("limit: run returned at %v having logged %v", k.Now(), *got)
	}
	k.Run()
	if !reflect.DeepEqual(*got, *want) {
		t.Fatalf("run resumed after the limit logged\n %v, want\n %v", *got, *want)
	}
	k.Close()
}

// A panic in a process surfaces from Run with its value, also from a process
// spawned by a process that is parked.
func TestPanicSurfacesFromAnyDepth(t *testing.T) {
	for _, depth := range []int{1, 3} {
		k := NewKernel(1)
		chain(k, depth, func(level int, p *Proc) {
			p.Sleep(Time(level))
			if level == depth {
				panic(fmt.Sprintf("boom at level %d", level))
			}
			p.Sleep(100)
		})
		var got any
		func() {
			defer func() { got = recover() }()
			k.Run()
		}()
		if want := fmt.Sprintf("boom at level %d", depth); got != want {
			t.Fatalf("depth %d: Run surfaced %v, want %q", depth, got, want)
		}
	}
}
