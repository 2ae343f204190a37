package sim

import (
	"fmt"
	"reflect"
	"testing"
)

// resetWorkload is a small but structurally busy scenario: staggered
// sleepers, a queue-fed consumer, an event rendezvous, a timer callback and
// kernel randomness, so a reset kernel has to reproduce heap ordering, ring
// FIFO behaviour, timer delivery and the seeded random stream.
func resetWorkload(k *Kernel) []string {
	var log []string
	k.SetTracer(func(t Time, proc, msg string) {
		log = append(log, fmt.Sprintf("%v %s %s", t, proc, msg))
	})
	q := NewQueue[int](k)
	done := k.NewEvent()
	k.Go("producer", func(p *Proc) {
		for i := 0; i < 4; i++ {
			p.Sleep(Time(1 + k.Rand().Intn(5)))
			q.Put(i)
			p.Tracef("put %d", i)
		}
	})
	k.Go("consumer", func(p *Proc) {
		for i := 0; i < 4; i++ {
			v := q.Get(p)
			p.Tracef("got %d", v)
		}
		done.Fire()
	})
	k.Go("waiter", func(p *Proc) {
		p.Wait(done)
		p.Tracef("done at %v", p.Now())
	})
	k.After(3, func() { log = append(log, "timer@3") })
	k.Run()
	log = append(log, fmt.Sprintf("end now=%v dispatched=%d", k.Now(), k.Dispatched()))
	return log
}

// TestKernelResetWithArmedDaemons: what a horizon leaves armed — a timer on
// a far deadline, one daemon asleep, one kick-waiting with a deadline — dies
// with the reset: the activations go with the heap, and the next run has a
// fresh kernel's ids and sequence numbers.
func TestKernelResetWithArmedDaemons(t *testing.T) {
	fresh := resetWorkload(NewKernel(42))

	reused := NewKernel(7)
	reused.After(1000, func() { t.Error("timer armed before Reset fired after it") })
	reused.After(50, func() {})
	reused.GoDaemon("sleeper", func(d *Daemon) { d.Sleep(300) })
	reused.GoDaemon("waiter", func(d *Daemon) { d.WaitKickTimeout(400) })
	reused.RunUntil(200)
	if got := reused.Blocked(); len(got) != 0 {
		t.Fatalf("armed daemons reported blocked: %v", got)
	}
	if reused.ProcCount() != 2 {
		t.Fatalf("ProcCount = %d, want 2 (sleeper, waiter)", reused.ProcCount())
	}

	reused.Reset(42)
	if got := resetWorkload(reused); !reflect.DeepEqual(got, fresh) {
		t.Errorf("reset kernel diverged from fresh kernel:\nfresh: %v\nreused: %v", fresh, got)
	}
}

// TestKernelResetState pins the observable state a reset must restore.
func TestKernelResetState(t *testing.T) {
	k := NewKernel(1)
	k.Go("a", func(p *Proc) { p.Sleep(10) })
	k.Go("stuck", func(p *Proc) { p.Wait(k.NewEvent()) })
	k.Run()
	if k.Now() == 0 || k.Dispatched() == 0 {
		t.Fatal("setup run did not execute")
	}
	k.Reset(99)
	if k.Now() != 0 {
		t.Errorf("Now after Reset = %v, want 0", k.Now())
	}
	if k.Dispatched() != 0 {
		t.Errorf("Dispatched after Reset = %d, want 0", k.Dispatched())
	}
	if k.ProcCount() != 0 {
		t.Errorf("ProcCount after Reset = %d, want 0", k.ProcCount())
	}
	if got, want := k.Rand().Int63(), NewKernel(99).Rand().Int63(); got != want {
		t.Errorf("random stream after Reset = %d, want fresh seed-99 stream %d", got, want)
	}
}

// TestRingResetKeepsCapacity verifies Reset releases contents but not the
// grown backing array — the property that makes pooled reuse worthwhile.
func TestRingResetKeepsCapacity(t *testing.T) {
	var r Ring[*int]
	for i := 0; i < 100; i++ {
		v := i
		r.Push(&v)
	}
	capBefore := len(r.buf)
	r.Reset()
	if r.Len() != 0 {
		t.Errorf("Len after Reset = %d, want 0", r.Len())
	}
	if len(r.buf) != capBefore {
		t.Errorf("Cap after Reset = %d, want %d (backing array retained)", len(r.buf), capBefore)
	}
	// The ring must still be fully usable.
	for i := 0; i < 3; i++ {
		v := i
		r.Push(&v)
	}
	for i := 0; i < 3; i++ {
		if got := *r.Pop(); got != i {
			t.Fatalf("Pop after Reset = %d, want %d", got, i)
		}
	}
}

// TestEventReset: a fired event with no waiters can be rearmed.
func TestEventReset(t *testing.T) {
	e := NewKernel(1).NewEvent()
	e.Fire()
	if !e.Fired() {
		t.Fatal("event did not fire")
	}
	e.Reset()
	if e.Fired() {
		t.Error("event still fired after Reset")
	}
}

// TestEventResetWithWaitersPanics pins the guard against stranding a parked
// process.
func TestEventResetWithWaitersPanics(t *testing.T) {
	k := NewKernel(1)
	e := k.NewEvent()
	k.Go("waiter", func(p *Proc) { p.Wait(e) })
	k.Run()
	defer func() {
		if recover() == nil {
			t.Error("Reset with parked waiters did not panic")
		}
	}()
	e.Reset()
}

// TestResetDuringRunPanics pins the misuse guard.
func TestResetDuringRunPanics(t *testing.T) {
	k := NewKernel(1)
	k.Go("p", func(p *Proc) {
		defer func() {
			if recover() == nil {
				t.Error("Reset during an active run did not panic")
			}
		}()
		k.Reset(2)
	})
	k.Run()
}
