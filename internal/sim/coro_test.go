package sim

import (
	"reflect"
	"runtime"
	"testing"
)

// A process per request must not cost a goroutine per request: finished
// processes leave their coroutines for the next spawn, the pool stays at the
// peak number of live processes, and Close gives it all back.
func TestCoroutinePoolBoundsGoroutines(t *testing.T) {
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
	if len(k.idle) == 0 || len(k.idle) > live+2 {
		t.Fatalf("%d idle coroutines after the run, want 1..%d", len(k.idle), live+2)
	}
	if k.ProcCount() != 0 || len(k.Blocked()) != 0 {
		t.Fatalf("idle coroutines show as processes: ProcCount=%d Blocked=%v", k.ProcCount(), k.Blocked())
	}
	k.Close()
	k.Close() // idempotent
	if n := runtime.NumGoroutine(); n > base {
		t.Fatalf("%d goroutines after Close, %d before the run", n, base)
	}
	// A closed kernel still runs: it builds coroutines again.
	ran := false
	k.Go("again", func(p *Proc) { ran = true })
	k.Run()
	k.Close()
	if !ran || runtime.NumGoroutine() > base {
		t.Fatalf("after Close: ran=%v goroutines=%d, want true %d", ran, runtime.NumGoroutine(), base)
	}
	// A chain of 64, each waiting on the next: the resume stack grows as deep
	// as the chain, every process exits at its own depth, and each leaves a
	// coroutine that Close can stop like any other.
	const links = 64
	deepest := 0
	done := make([]*Event, links+1)
	for i := range done {
		done[i] = k.NewEvent()
	}
	chain(k, links, func(level int, p *Proc) {
		if level == links {
			deepest = resumeStackDepth(t, k)
		}
		p.Wait(done[level])
		done[level-1].Fire()
	})
	k.After(1, done[links].Fire)
	k.Run()
	if deepest != links || len(k.idle) != links || k.ProcCount() != 0 {
		t.Fatalf("chain reached depth %d and left %d idle coroutines, %d processes; want %d, %d, 0", deepest, len(k.idle), k.ProcCount(), links, links)
	}
	k.Close()
	if n := runtime.NumGoroutine(); n > base {
		t.Fatalf("%d goroutines after closing the chain's kernel, %d before the run", n, base)
	}
}

// The second occupant of a coroutine is a new process in every respect, and
// activations left by the first cannot reach it.
func TestRecycledCoroutineIsAFreshProcess(t *testing.T) {
	k := NewKernel(1)
	defer k.Close()
	sig := k.NewSignal()
	var first, second *Proc
	var woke []Time
	first = k.Go("first", func(p *Proc) {
		p.WaitSignalTimeout(sig, 10) // leaves a timeout activation at 10 behind
	})
	k.Go("driver", func(p *Proc) {
		p.Sleep(3)
		sig.Notify()
		p.Sleep(1)
		if len(k.idle) != 1 {
			t.Errorf("%d idle coroutines after first exited, want 1", len(k.idle))
		}
		second = k.GoNamed(func() string { return "second" }, func(p *Proc) {
			if p.epoch != 1 {
				t.Errorf("second starts at epoch %d, want 1", p.epoch)
			}
			p.Sleep(20)
			woke = append(woke, p.Now())
		})
		if len(k.idle) != 0 {
			t.Errorf("second did not take the idle coroutine")
		}
	})
	k.Run()
	if !reflect.DeepEqual(woke, []Time{24}) {
		t.Fatalf("second woke at %v, want [24]: first's stale timeout at 10 must not reach it", woke)
	}
	if first == second || first.id == second.id || first.Name() != "first" || second.Name() != "second" {
		t.Fatalf("first = %d %q, second = %d %q", first.id, first.Name(), second.id, second.Name())
	}
	if first.pending != 0 || second.pending != 0 {
		t.Fatalf("pending counts %d, %d after a drained run", first.pending, second.pending)
	}

	// Where on the resume stack a coroutine was left does not matter to the
	// next occupant: l3 exits three deep, and a tenant spawned by l1 once the
	// stack has unwound moves into l3's coroutine and starts two deep.
	var exited []int
	started, tenantWoke := 0, Time(-1)
	chain(k, 3, func(level int, p *Proc) {
		p.Sleep(Time(10 * (3 - level)))
		if level > 1 {
			exited = append(exited, resumeStackDepth(t, k))
			return
		}
		if len(k.idle) != 2 {
			t.Fatalf("%d idle coroutines after l3 and l2 exited, want 2", len(k.idle))
		}
		l3s := k.idle[0]
		k.Go("brief", func(p *Proc) {}) // in and out of l2's coroutine
		k.Go("tenant", func(p *Proc) {
			if l3s.p != p {
				t.Errorf("tenant is not on l3's coroutine")
			}
			started = resumeStackDepth(t, k)
			p.Sleep(7)
			tenantWoke = p.Now()
		})
		p.Sleep(50)
	})
	k.Run()
	if !reflect.DeepEqual(exited, []int{3, 2}) || started != 2 {
		t.Fatalf("l3, l2 exited at depths %v, tenant started at %d; want [3 2] and 2", exited, started)
	}
	if want := k.Now() - 50 + 7; tenantWoke != want {
		t.Fatalf("tenant woke at %v, want %v", tenantWoke, want)
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
// park runs, every defer runs once, and the coroutine is the kernel's again.
func TestResetAndCloseUnwindParkedProcesses(t *testing.T) {
	parks := []struct {
		name string
		park func(k *Kernel, p *Proc)
	}{
		{"Sleep", func(k *Kernel, p *Proc) { p.Sleep(100) }},
		{"Wait", func(k *Kernel, p *Proc) { p.Wait(k.NewEvent()) }},
		{"WaitSignal", func(k *Kernel, p *Proc) { p.WaitSignal(k.NewSignal()) }},
		{"WaitSignalTimeout", func(k *Kernel, p *Proc) { p.WaitSignalTimeout(k.NewSignal(), 100) }},
		{"Queue.Get", func(k *Kernel, p *Proc) { NewQueue[int](k).Get(p) }},
		{"Mutex.Lock", func(k *Kernel, p *Proc) {
			m := k.NewMutex()
			m.Lock(p)
			m.Lock(p)
		}},
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
			if e.name == "Reset" && len(k.idle) != 1 {
				t.Errorf("%s/Reset: %d idle coroutines, want the victim's", pk.name, len(k.idle))
			}
			k.Close()
			if n := runtime.NumGoroutine(); n > base {
				t.Fatalf("%s/%s: %d goroutines after Close, %d before", pk.name, e.name, n, base)
			}
		}
	}
}

// A process spawned and never started is unwound without its body running,
// on a fresh coroutine and on one a finished process left, and the coroutine
// serves the next process like any other.
func TestUnwindSkipsNeverStartedProcess(t *testing.T) {
	for _, e := range enders {
		for _, reused := range []bool{false, true} {
			k := NewKernel(1)
			if reused {
				k.Go("first", func(p *Proc) {})
				k.Run()
			}
			k.Go("never", func(p *Proc) { t.Errorf("%s: a never-started body ran (reused=%v)", e.name, reused) })
			if reused && len(k.idle) != 0 {
				t.Fatal("never did not take first's coroutine")
			}
			e.end(k)
			if k.ProcCount() != 0 {
				t.Errorf("%s: ProcCount = %d after unwinding a never-started process", e.name, k.ProcCount())
			}
			if e.name == "Reset" && len(k.idle) != 1 {
				t.Errorf("Reset: %d idle coroutines, want 1 (reused=%v)", len(k.idle), reused)
			}
			ran := false
			k.Go("next", func(p *Proc) { p.Sleep(1); ran = true })
			k.Run()
			if !ran {
				t.Errorf("%s: the process after the unwinding did not run (reused=%v)", e.name, reused)
			}
			k.Close()
		}
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

// Reset leaves every coroutine the run made on the idle list — as many as the
// run's peak of live processes — so the same run again builds none.
func TestResetKeepsEveryCoroutine(t *testing.T) {
	k := NewKernel(1)
	defer k.Close()
	peak := 0
	run := func() {
		spawn := func(name string, life Time) {
			k.Go(name, func(p *Proc) { p.Sleep(life) })
			peak = max(peak, k.ProcCount())
		}
		k.Go("spawner", func(p *Proc) {
			for i := 0; i < 40; i++ {
				if i%4 == 0 {
					spawn("long", 1000) // still parked when the run stops
				} else {
					spawn("req", Time(3+i%7))
				}
				p.Sleep(1)
			}
			spawn("late", 0) // never started
			k.Stop()
		})
		k.Run()
		k.Reset(1)
	}
	run()
	if peak < 12 || len(k.idle) != peak {
		t.Fatalf("%d idle coroutines after Reset, peak of live processes %d", len(k.idle), peak)
	}
	goroutines := runtime.NumGoroutine()
	run()
	if len(k.idle) != peak || runtime.NumGoroutine() != goroutines {
		t.Fatalf("the second run left %d idle coroutines and %d goroutines, want %d and %d: it built new ones",
			len(k.idle), runtime.NumGoroutine(), peak, goroutines)
	}
}
