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
	ev := k.NewEvent()
	var first, second *Proc
	var woke []Time
	first = k.Go("first", func(p *Proc) {
		p.WaitTimeout(ev, 10) // leaves a timeout activation at 10 behind
	})
	k.Go("driver", func(p *Proc) {
		p.Sleep(3)
		ev.Fire()
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
	if first == second || first.ID() == second.ID() || first.Name() != "first" || second.Name() != "second" {
		t.Fatalf("first = %d %q, second = %d %q", first.ID(), first.Name(), second.ID(), second.Name())
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
