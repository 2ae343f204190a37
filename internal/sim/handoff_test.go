package sim

import (
	"fmt"
	"reflect"
	"testing"
)

// drivingProcs counts the processes suspended in the resume of another: the
// resume stack below whoever runs now. It fails the test on one that is not
// inside park.
func drivingProcs(t *testing.T, k *Kernel) int {
	t.Helper()
	n := 0
	for p := range k.procs {
		if !p.driving {
			continue
		}
		n++
		if !p.parked || p.done || p.daemon != nil {
			t.Errorf("%s is driving with parked=%v done=%v daemon=%v", p.Name(), p.parked, p.done, p.daemon != nil)
		}
	}
	return n
}

// resumeStackDepth returns how deep the resume stack is, seen from a running
// process body: the processes driving, plus the caller on top.
func resumeStackDepth(t *testing.T, k *Kernel) int {
	t.Helper()
	depth := drivingProcs(t, k) + 1
	if depth > k.ProcCount() {
		t.Errorf("resume stack %d deep with %d live processes", depth, k.ProcCount())
	}
	return depth
}

// requireStackUnwound holds RunUntil's exit invariant: no process is driving,
// so every live one is suspended in a plain yield, which is where Reset and
// Close unwind it from.
func requireStackUnwound(t *testing.T, k *Kernel) {
	t.Helper()
	if k.running != nil {
		t.Fatalf("%s still marked running after the run returned", k.running.Name())
	}
	if n := drivingProcs(t, k); n != 0 {
		t.Fatalf("run returned with %d processes driving", n)
	}
}

// chain starts depth nested processes, each spawning the next and then
// running its own part of body(level, p), so level n's body runs with levels
// 1..n-1 driving below it.
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

// A caller/callee round trip costs one resume: the caller resumes the callee
// from its own park, and the callee's reply reaches the caller by unwinding.
func TestRoundTripCostsOneResume(t *testing.T) {
	const n = 1000
	for _, hop := range []Time{-1, 2} {
		k := NewKernel(1)
		req, rep := NewQueue[any](k), NewQueue[any](k)
		send := func(q *Queue[any], v any) {
			if hop < 0 {
				q.Put(v)
			} else {
				k.AfterPut(hop, q, v)
			}
		}
		var caller *Proc
		sum := 0
		caller = k.Go("caller", func(p *Proc) {
			for i := 0; i < n; i++ {
				send(req, i)
				sum += rep.Get(p).(int)
			}
		})
		k.Go("callee", func(p *Proc) {
			for i := 0; i < n; i++ {
				v := req.Get(p)
				if !caller.driving || resumeStackDepth(t, k) != 2 {
					t.Fatalf("hop %v, call %d: callee runs at depth %d with caller driving=%v", hop, i, resumeStackDepth(t, k), caller.driving)
				}
				send(rep, v)
			}
		})
		k.Run()
		requireStackUnwound(t, k)
		if sum != n*(n-1)/2 || k.ProcCount() != 0 {
			t.Fatalf("hop %v: sum %d, %d processes left", hop, sum, k.ProcCount())
		}
		if got := k.Resumes(); got > n+2 {
			t.Fatalf("hop %v: %d resumes for %d round trips, want at most %d", hop, got, n, n+2)
		}
		k.Close()
	}
}

// Which goroutine delivers a wake-up is not part of the schedule: the random
// script logs the same run whether the stack grows as deep as it likes or
// every tick ends with it unwound, and never pays more than one resume per
// process wake-up.
func TestResumeStackLeavesScheduleAlone(t *testing.T) {
	var total scriptCoverage
	saved := false
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
		saved = saved || run.Resumes < win.Resumes
		total.spawned += cov.spawned
		if cov.maxDepth > total.maxDepth {
			total.maxDepth = cov.maxDepth
		}
	}
	if total.spawned == 0 || total.maxDepth < 3 || !saved {
		t.Fatalf("script no longer covers the resume stack: %+v, unwinding saved a resume: %v", total, saved)
	}
}

// threeDeep is a scenario whose processes sit three deep on the resume stack
// around t = 5, where cut (if any) runs in the top one's body; the log is
// what an interrupted and resumed run must reproduce.
func threeDeep(k *Kernel, cut func()) *[]string {
	log := new([]string)
	k.SetTracer(func(at Time, proc, msg string) {
		*log = append(*log, fmt.Sprintf("%v %s %s", at, proc, msg))
	})
	chain(k, 3, func(level int, p *Proc) {
		p.Sleep(5)
		if level == 3 && cut != nil {
			cut()
		}
		p.Tracef("woke")
		p.Sleep(Time(10 * (4 - level)))
		p.Tracef("done")
	})
	return log
}

// Stop from the top of a three-deep stack, and a limit that falls while the
// stack is three deep, both hand control to the driver with every level
// unwound, and the run picks up where it left off.
func TestStopAndLimitUnwindTheStack(t *testing.T) {
	ref := NewKernel(1)
	want := threeDeep(ref, nil)
	ref.Run()
	ref.Close()

	k := NewKernel(1)
	depth := 0
	got := threeDeep(k, func() {
		depth = resumeStackDepth(t, k)
		k.Stop()
	})
	k.Run()
	requireStackUnwound(t, k)
	if depth != 3 || k.Now() != 5 || len(*got) != 3 { // Stop takes effect when l3 next parks
		t.Fatalf("Stop at depth %d: run returned at %v having logged %v", depth, k.Now(), *got)
	}
	k.Run()
	if !reflect.DeepEqual(*got, *want) {
		t.Fatalf("run resumed after Stop logged\n %v, want\n %v", *got, *want)
	}
	k.Close()

	k, depth = NewKernel(1), 0
	got = threeDeep(k, func() { depth = resumeStackDepth(t, k) })
	k.RunUntil(7) // l3 has woken (three deep) and every level sleeps past the limit
	requireStackUnwound(t, k)
	if depth != 3 || k.Now() != 7 || len(*got) != 3 {
		t.Fatalf("limit at depth %d: run returned at %v having logged %v", depth, k.Now(), *got)
	}
	k.Run()
	if !reflect.DeepEqual(*got, *want) {
		t.Fatalf("run resumed after the limit logged\n %v, want\n %v", *got, *want)
	}
	k.Close()
}

// A panic in a process surfaces from Run with its value whatever the depth:
// it travels down through the park frames of the processes driving below.
func TestPanicSurfacesFromAnyDepth(t *testing.T) {
	for _, depth := range []int{1, 3} {
		k := NewKernel(1)
		at := 0
		chain(k, depth, func(level int, p *Proc) {
			p.Sleep(Time(level))
			if level == depth {
				at = resumeStackDepth(t, k)
				panic(fmt.Sprintf("boom at level %d", level))
			}
			p.Sleep(100)
		})
		var got any
		func() {
			defer func() { got = recover() }()
			k.Run()
		}()
		if want := fmt.Sprintf("boom at level %d", depth); got != want || at != depth {
			t.Fatalf("depth %d: panicked at depth %d, Run surfaced %v, want %q", depth, at, got, want)
		}
	}
}
