package sim

import (
	"fmt"
	"strings"
	"testing"
)

func TestTracerReceivesTracef(t *testing.T) {
	k := NewKernel(1)
	var lines []string
	k.SetTracer(func(at Time, proc, msg string) {
		lines = append(lines, fmt.Sprintf("%v %s %s", at, proc, msg))
	})
	k.Go("worker", func(p *Proc) {
		p.Sleep(5)
		p.Tracef("did %d things", 3)
	})
	k.Run()
	if len(lines) != 1 || !strings.Contains(lines[0], "5us worker did 3 things") {
		t.Fatalf("trace lines = %v", lines)
	}
	// Disabling the tracer must not panic.
	k2 := NewKernel(1)
	k2.Go("quiet", func(p *Proc) { p.Tracef("ignored") })
	k2.Run()
}

func TestProcIdentity(t *testing.T) {
	k := NewKernel(1)
	var ids []int
	var names []string
	for _, n := range []string{"a", "b"} {
		n := n
		k.Go(n, func(p *Proc) {
			ids = append(ids, p.id)
			names = append(names, p.Name())
			if p.Kernel() != k {
				t.Error("Kernel() mismatch")
			}
		})
	}
	k.Run()
	if ids[0] == ids[1] {
		t.Fatal("process ids collide")
	}
	if names[0] != "a" || names[1] != "b" {
		t.Fatalf("names = %v", names)
	}
}

func TestRunUntilThenResumeWithTimers(t *testing.T) {
	k := NewKernel(1)
	var fired []Time
	k.Go("setup", func(p *Proc) {
		for _, d := range []Time{10, 30, 50} {
			d := d
			k.After(d, func() { fired = append(fired, k.Now()) })
		}
	})
	k.RunUntil(20)
	if len(fired) != 1 || fired[0] != 10 {
		t.Fatalf("after RunUntil(20): fired = %v", fired)
	}
	k.Run()
	if len(fired) != 3 || fired[2] != 50 {
		t.Fatalf("after resume: fired = %v", fired)
	}
}

func TestStopInsideTimerCallbackWorld(t *testing.T) {
	k := NewKernel(1)
	n := 0
	k.Go("setup", func(p *Proc) {
		k.After(5, func() { n++; k.Stop() })
		k.After(10, func() { n++ })
	})
	k.Run()
	if n != 1 {
		t.Fatalf("callbacks run = %d, want 1 (stopped)", n)
	}
	k.Run() // resume delivers the second
	if n != 2 {
		t.Fatalf("after resume = %d, want 2", n)
	}
}

func TestQueueLenAndSignalWaiting(t *testing.T) {
	k := NewKernel(1)
	q := NewQueue[int](k)
	s := new(Signal)
	k.Go("w", func(p *Proc) {
		q.Put(1)
		q.Put(2)
		if q.Len() != 2 {
			t.Errorf("Len = %d", q.Len())
		}
		if s.waiters.Len() != 0 {
			t.Errorf("Waiting = %d", s.waiters.Len())
		}
	})
	k.Run()
}

// TestFiringAFiredPooledEventFreesItOnce fires a released pooled event twice:
// the second Fire is a no-op, so the event is on the free list once and the
// next two NewPooledEvent calls hand out two events.
func TestFiringAFiredPooledEventFreesItOnce(t *testing.T) {
	k := NewKernel(1)
	e := k.NewPooledEvent()
	e.Unref() // released unfired: the first Fire recycles it
	e.Fire()
	e.Fire()
	if a, b := k.NewPooledEvent(), k.NewPooledEvent(); a == b {
		t.Fatal("NewPooledEvent handed out one event twice: a second Fire freed it again")
	}
}
