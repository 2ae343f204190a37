package sim

import (
	"fmt"
	"reflect"
	"testing"
)

// The same-instant fast path must not reorder work: a self-reschedule at now
// runs after every activation already pending at this instant, in sequence
// order, exactly as the single-heap kernel ordered it.
func TestSameInstantOrderingAcrossYields(t *testing.T) {
	k := NewKernel(1)
	var order []string
	for i := 0; i < 3; i++ {
		i := i
		k.Go(fmt.Sprintf("p%d", i), func(p *Proc) {
			for round := 0; round < 3; round++ {
				order = append(order, fmt.Sprintf("p%d.%d", i, round))
				p.Sleep(0)
			}
		})
	}
	k.Run()
	want := []string{
		"p0.0", "p1.0", "p2.0",
		"p0.1", "p1.1", "p2.1",
		"p0.2", "p1.2", "p2.2",
	}
	if !reflect.DeepEqual(order, want) {
		t.Fatalf("order = %v, want %v", order, want)
	}
}

// Stop during a same-instant batch halts after the currently executing
// process parks; the rest of the batch stays pending and resumes on the next
// Run call in the original order.
func TestStopDuringSameInstantBatch(t *testing.T) {
	k := NewKernel(1)
	var ran []int
	for i := 0; i < 5; i++ {
		i := i
		k.Go(fmt.Sprintf("p%d", i), func(p *Proc) {
			p.Sleep(1)
			ran = append(ran, i)
			if i == 1 {
				p.Kernel().Stop()
			}
		})
	}
	k.Run()
	if !reflect.DeepEqual(ran, []int{0, 1}) {
		t.Fatalf("ran before stop = %v, want [0 1]", ran)
	}
	if k.Now() != 1 {
		t.Fatalf("clock = %v, want 1us", k.Now())
	}
	k.Run()
	if !reflect.DeepEqual(ran, []int{0, 1, 2, 3, 4}) {
		t.Fatalf("ran after resume = %v, want [0 1 2 3 4]", ran)
	}
	if k.Now() != 1 {
		t.Fatalf("clock moved to %v resuming a same-instant batch", k.Now())
	}
}

// The dispatch counter excludes stale wakeups and accumulates across runs.
func TestDispatchedCounter(t *testing.T) {
	k := NewKernel(1)
	s := new(Signal)
	k.Go("w", func(p *Proc) {
		p.WaitSignalTimeout(s, 10) // event wins; timer activation goes stale
		p.Sleep(100)
	})
	k.Go("f", func(p *Proc) {
		p.Sleep(5)
		s.Notify()
	})
	n := k.Run()
	if uint64(n) != k.Dispatched() {
		t.Fatalf("Run returned %d, Dispatched() = %d", n, k.Dispatched())
	}
	// start(w) + start(f) + f's sleep wake + event wake of w + w's final
	// sleep wake: the stale timer at t=10 must not be counted.
	if n != 5 {
		t.Fatalf("dispatched %d activations, want 5 (stale timer excluded)", n)
	}
}

// A deep chain of self-reschedules exercises the no-channel fast path; the
// clock and ordering must match the semantics of the slow path exactly.
func TestSelfRescheduleChain(t *testing.T) {
	k := NewKernel(1)
	count := 0
	k.Go("spinner", func(p *Proc) {
		for i := 0; i < 10000; i++ {
			p.Sleep(0)
			count++
		}
	})
	k.Run()
	if count != 10000 || k.Now() != 0 {
		t.Fatalf("count=%d now=%v, want 10000 yields at t=0", count, k.Now())
	}
}

// The tests below pin the five guards of the Sleep that takes its own wake-up
// (Proc.Sleep): each fails if its guard is dropped. Queued tells a sleep taken
// on the spot from one that went through the heap or the ring.

// A heap entry at exactly now+d is older than the sleeper's wake-up would be
// and runs first.
func TestSleepBehindHeapEntryAtSameInstant(t *testing.T) {
	k := NewKernel(1)
	var order []string
	k.Go("s", func(p *Proc) {
		k.After(10, func() { order = append(order, "timer") })
		p.Sleep(10)
		order = append(order, "sleeper")
	})
	k.Run()
	if !reflect.DeepEqual(order, []string{"timer", "sleeper"}) {
		t.Fatalf("order = %v, want the timer armed first to fire first", order)
	}
	if k.Queued() != 3 {
		t.Fatalf("Queued = %d, want 3: the start, the timer and a sleep that had to queue", k.Queued())
	}
}

// A sleep ending exactly at the run limit is taken; one ending beyond it parks
// and leaves the clock at the limit.
func TestSleepTakenUpToLimitOnly(t *testing.T) {
	k := NewKernel(1)
	var wakes []Time
	k.Go("s", func(p *Proc) {
		for i := 0; i < 3; i++ {
			p.Sleep(10)
			wakes = append(wakes, p.Now())
		}
	})
	defer k.Close()
	k.RunUntil(10)
	if !reflect.DeepEqual(wakes, []Time{10}) || k.Now() != 10 {
		t.Fatalf("RunUntil(10): wakes %v, clock %v, want [10] and 10", wakes, k.Now())
	}
	if k.Queued() != 2 {
		t.Fatalf("Queued = %d, want 2: the start and the sleep to 20, not the sleep to 10", k.Queued())
	}
	if at, ok := k.NextEventTime(); !ok || at != 20 {
		t.Fatalf("NextEventTime = %v %v, want the parked sleeper's 20", at, ok)
	}
}

// After Stop the sleeper parks, whatever it is next in line for.
func TestSleepParksAfterStop(t *testing.T) {
	k := NewKernel(1)
	woke := false
	k.Go("s", func(p *Proc) {
		k.Stop()
		p.Sleep(5)
		woke = true
	})
	k.Run()
	if woke || k.Now() != 0 {
		t.Fatalf("Stop did not hold the sleeper: woke = %v, clock = %v", woke, k.Now())
	}
	k.Run()
	if !woke || k.Now() != 5 {
		t.Fatalf("resumed run: woke = %v, clock = %v, want true at 5", woke, k.Now())
	}
}

// A Sleep reached from a defer while Close unwinds the process ends the defer
// like any park does: nothing is dispatched and the clock stays.
func TestSleepInDeferPanicsWhileUnwinding(t *testing.T) {
	k := NewKernel(1)
	never := k.NewEvent()
	slept := false
	k.Go("s", func(p *Proc) {
		defer func() {
			p.Sleep(0)
			slept = true
		}()
		p.Wait(never)
	})
	k.Run()
	before := k.Dispatched()
	k.Close()
	if slept || k.Dispatched() != before || k.ProcCount() != 0 {
		t.Fatalf("unwinding: slept = %v, %d dispatches more, %d processes left", slept, k.Dispatched()-before, k.ProcCount())
	}
}

// A sleep taken on the spot across an idle gap of at least the horizon counts
// one jump, as the queued wake-up would have when it was popped.
func TestSleepTakenCountsItsJump(t *testing.T) {
	k := NewKernel(1)
	k.SetFFHorizon(100)
	k.Go("s", func(p *Proc) {
		p.Sleep(99)
		p.Sleep(100)
	})
	k.Run()
	if jumps, skipped := k.FastForwards(); jumps != 1 || skipped != 100 {
		t.Fatalf("FastForwards = %d, %v, want 1 jump over 100", jumps, skipped)
	}
	if k.Queued() != 1 || k.Dispatched() != 3 {
		t.Fatalf("Queued = %d, Dispatched = %d, want 1 (the start) and 3", k.Queued(), k.Dispatched())
	}
}

// An instant that holds nothing but stale wake-ups is one jump however many
// they are, and the clock does not move to it: the next gap is measured from
// where the clock stands.
func TestStaleOnlyInstantCountsOneJump(t *testing.T) {
	k := NewKernel(1)
	k.SetFFHorizon(50)
	s := new(Signal)
	for i := 0; i < 2; i++ {
		k.Go("w", func(p *Proc) { p.WaitSignalTimeout(s, 100) })
	}
	k.Go("n", func(p *Proc) {
		p.Sleep(1)
		s.Notify() // both deadlines at 100 are stale from here on
		p.Sleep(199)
	})
	k.Run()
	if jumps, skipped := k.FastForwards(); jumps != 2 || skipped != 99+199 {
		t.Fatalf("FastForwards = %d, %v, want 2 jumps over 99+199", jumps, skipped)
	}
	if k.Now() != 200 {
		t.Fatalf("clock = %v, want 200", k.Now())
	}
}

// Once the queue has drained, a stale-only instant the clock never reached is
// forgotten: work that lands on it afterwards is a jump of its own.
func TestStaleOnlyInstantIsForgottenOnceDrained(t *testing.T) {
	k := NewKernel(1)
	k.SetFFHorizon(50)
	s := new(Signal)
	k.Go("w", func(p *Proc) { p.WaitSignalTimeout(s, 100) })
	k.Go("n", func(p *Proc) {
		p.Sleep(1)
		s.Notify()
	})
	k.Run()
	if jumps, _ := k.FastForwards(); jumps != 1 || k.Now() != 1 {
		t.Fatalf("first run: %d jumps, clock %v, want 1 (to the stale deadline) and 1", jumps, k.Now())
	}
	k.After(99, func() {})
	k.Run()
	if jumps, skipped := k.FastForwards(); jumps != 2 || skipped != 99+99 || k.Now() != 100 {
		t.Fatalf("second run: %d jumps over %v, clock %v, want 2 over 198 and 100", jumps, skipped, k.Now())
	}
}
