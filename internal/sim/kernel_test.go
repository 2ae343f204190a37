package sim

import (
	"fmt"
	"reflect"
	"testing"
	"testing/quick"
)

func TestClockStartsAtZero(t *testing.T) {
	k := NewKernel(1)
	if k.Now() != 0 {
		t.Fatalf("Now() = %v, want 0", k.Now())
	}
}

func TestSleepAdvancesClock(t *testing.T) {
	k := NewKernel(1)
	var at Time
	k.Go("sleeper", func(p *Proc) {
		p.Sleep(5 * Millisecond)
		at = p.Now()
	})
	k.Run()
	if at != 5*Millisecond {
		t.Fatalf("woke at %v, want 5ms", at)
	}
	if k.Now() != 5*Millisecond {
		t.Fatalf("kernel clock %v, want 5ms", k.Now())
	}
}

func TestSleepZeroAndNegative(t *testing.T) {
	k := NewKernel(1)
	order := []string{}
	k.Go("a", func(p *Proc) {
		p.Sleep(-3)
		order = append(order, "a")
	})
	k.Go("b", func(p *Proc) {
		p.Sleep(0)
		order = append(order, "b")
	})
	k.Run()
	if k.Now() != 0 {
		t.Fatalf("clock moved to %v on zero sleeps", k.Now())
	}
	want := []string{"a", "b"}
	if !reflect.DeepEqual(order, want) {
		t.Fatalf("order = %v, want %v", order, want)
	}
}

func TestFIFOOrderAtSameInstant(t *testing.T) {
	k := NewKernel(1)
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		k.Go(fmt.Sprintf("p%d", i), func(p *Proc) {
			p.Sleep(1 * Millisecond)
			order = append(order, i)
		})
	}
	k.Run()
	for i, v := range order {
		if v != i {
			t.Fatalf("order = %v, want ascending", order)
		}
	}
}

func TestInterleavedSleeps(t *testing.T) {
	k := NewKernel(1)
	var trace []string
	log := func(p *Proc, s string) { trace = append(trace, fmt.Sprintf("%s@%v", s, p.Now())) }
	k.Go("a", func(p *Proc) {
		p.Sleep(10)
		log(p, "a1")
		p.Sleep(20)
		log(p, "a2")
	})
	k.Go("b", func(p *Proc) {
		p.Sleep(15)
		log(p, "b1")
		p.Sleep(5)
		log(p, "b2")
	})
	k.Run()
	want := []string{"a1@10us", "b1@15us", "b2@20us", "a2@30us"}
	if !reflect.DeepEqual(trace, want) {
		t.Fatalf("trace = %v, want %v", trace, want)
	}
}

func TestRunUntilStopsAtLimit(t *testing.T) {
	k := NewKernel(1)
	ticks := 0
	k.Go("ticker", func(p *Proc) {
		for i := 0; i < 100; i++ {
			p.Sleep(1 * Second)
			ticks++
		}
	})
	k.RunUntil(10 * Second)
	if ticks != 10 {
		t.Fatalf("ticks = %d, want 10", ticks)
	}
	if k.Now() != 10*Second {
		t.Fatalf("clock = %v, want 10s", k.Now())
	}
	k.Run()
	if ticks != 100 {
		t.Fatalf("after resume ticks = %d, want 100", ticks)
	}
}

func TestStop(t *testing.T) {
	k := NewKernel(1)
	ticks := 0
	k.Go("ticker", func(p *Proc) {
		for {
			p.Sleep(1 * Second)
			ticks++
			if ticks == 3 {
				p.Kernel().Stop()
			}
		}
	})
	k.Run()
	if ticks != 3 {
		t.Fatalf("ticks = %d, want 3", ticks)
	}
}

func TestGoFromInsideProcess(t *testing.T) {
	k := NewKernel(1)
	var childTime Time
	k.Go("parent", func(p *Proc) {
		p.Sleep(7)
		p.Kernel().Go("child", func(c *Proc) {
			c.Sleep(3)
			childTime = c.Now()
		})
		p.Sleep(100)
	})
	k.Run()
	if childTime != 10 {
		t.Fatalf("child woke at %v, want 10us", childTime)
	}
}

func TestEventFireWakesWaiters(t *testing.T) {
	k := NewKernel(1)
	e := k.NewEvent()
	var woke []string
	for _, n := range []string{"w1", "w2", "w3"} {
		n := n
		k.Go(n, func(p *Proc) {
			p.Wait(e)
			woke = append(woke, fmt.Sprintf("%s@%v", n, p.Now()))
		})
	}
	k.Go("firer", func(p *Proc) {
		p.Sleep(42)
		e.Fire()
	})
	k.Run()
	want := []string{"w1@42us", "w2@42us", "w3@42us"}
	if !reflect.DeepEqual(woke, want) {
		t.Fatalf("woke = %v, want %v", woke, want)
	}
}

func TestWaitOnFiredEventReturnsImmediately(t *testing.T) {
	k := NewKernel(1)
	e := k.NewEvent()
	var at Time = -1
	k.Go("firer", func(p *Proc) { e.Fire() })
	k.Go("late", func(p *Proc) {
		p.Sleep(5)
		p.Wait(e)
		at = p.Now()
	})
	k.Run()
	if at != 5 {
		t.Fatalf("late waiter resumed at %v, want 5us", at)
	}
}

func TestDoubleFireIsNoop(t *testing.T) {
	k := NewKernel(1)
	e := k.NewEvent()
	n := 0
	k.Go("w", func(p *Proc) {
		p.Wait(e)
		n++
	})
	k.Go("f", func(p *Proc) {
		e.Fire()
		e.Fire()
	})
	k.Run()
	if n != 1 {
		t.Fatalf("waiter ran %d times, want 1", n)
	}
}

func TestWaitTimeoutExpires(t *testing.T) {
	k := NewKernel(1)
	s := new(Signal)
	var fired bool
	var at Time
	k.Go("w", func(p *Proc) {
		fired = p.WaitSignalTimeout(s, 30)
		at = p.Now()
	})
	k.Run()
	if fired {
		t.Fatal("WaitSignalTimeout reported a notification nobody sent")
	}
	if at != 30 {
		t.Fatalf("timeout at %v, want 30us", at)
	}
}

func TestWaitTimeoutEventWins(t *testing.T) {
	k := NewKernel(1)
	s := new(Signal)
	var fired bool
	var at Time
	k.Go("w", func(p *Proc) {
		fired = p.WaitSignalTimeout(s, 30)
		at = p.Now()
	})
	k.Go("f", func(p *Proc) {
		p.Sleep(10)
		s.Notify()
	})
	k.Run()
	if !fired {
		t.Fatal("WaitSignalTimeout missed the notification")
	}
	if at != 10 {
		t.Fatalf("woke at %v, want 10us", at)
	}
}

func TestStaleTimerDoesNotRewake(t *testing.T) {
	// After a notification wins, the pending timeout activation must not disturb
	// the process's next park.
	k := NewKernel(1)
	s := new(Signal)
	var at Time
	k.Go("w", func(p *Proc) {
		p.WaitSignalTimeout(s, 30)
		p.Sleep(100) // stale timer at t=30 must not cut this short
		at = p.Now()
	})
	k.Go("f", func(p *Proc) {
		p.Sleep(10)
		s.Notify()
	})
	k.Run()
	if at != 110 {
		t.Fatalf("woke at %v, want 110us", at)
	}
}

func TestTimedOutWaiterIsNotWokenByLateFire(t *testing.T) {
	// A waiter whose timeout won leaves the signal: a Notify that comes later
	// must not wake it out of whatever park it is in by then.
	k := NewKernel(1)
	s := new(Signal)
	var at Time
	k.Go("w", func(p *Proc) {
		if p.WaitSignalTimeout(s, 10) {
			t.Error("WaitSignalTimeout reported a notification before one was sent")
		}
		if n := s.waiters.Len(); n != 0 {
			t.Errorf("signal holds %d waiters after the timeout, want 0", n)
		}
		p.Sleep(100)
		at = p.Now()
	})
	k.Go("f", func(p *Proc) {
		p.Sleep(50)
		s.Notify()
	})
	k.Run()
	if at != 110 {
		t.Fatalf("woke at %v, want 110us", at)
	}
}

func TestSignalNotifyAllAndOne(t *testing.T) {
	k := NewKernel(1)
	s := new(Signal)
	var woke []string
	for _, n := range []string{"a", "b"} {
		n := n
		k.Go(n, func(p *Proc) {
			p.WaitSignal(s)
			woke = append(woke, n+"-1")
			p.WaitSignal(s)
			woke = append(woke, n+"-2")
		})
	}
	k.Go("n", func(p *Proc) {
		p.Sleep(1)
		s.Notify() // wakes a and b
		p.Sleep(1)
		if s.waiters.Len() != 2 {
			t.Errorf("Waiting = %d, want 2", s.waiters.Len())
		}
		s.NotifyOne() // wakes a only
		p.Sleep(1)
		s.NotifyOne() // wakes b
	})
	k.Run()
	want := []string{"a-1", "b-1", "a-2", "b-2"}
	if !reflect.DeepEqual(woke, want) {
		t.Fatalf("woke = %v, want %v", woke, want)
	}
}

func TestSignalTimeoutDropsWaiter(t *testing.T) {
	k := NewKernel(1)
	s := new(Signal)
	var got bool
	k.Go("w", func(p *Proc) {
		got = p.WaitSignalTimeout(s, 5)
	})
	k.Go("n", func(p *Proc) {
		p.Sleep(10)
		if s.waiters.Len() != 0 {
			t.Errorf("timed-out waiter still registered: %d", s.waiters.Len())
		}
		s.Notify() // must be a no-op, not a crash
	})
	k.Run()
	if got {
		t.Fatal("WaitSignalTimeout reported a signal that never came")
	}
}

func TestBlockedReportsDeadlockedProcs(t *testing.T) {
	k := NewKernel(1)
	e := k.NewEvent()
	k.Go("stuck", func(p *Proc) { p.Wait(e) })
	k.Go("fine", func(p *Proc) { p.Sleep(1) })
	k.Run()
	b := k.Blocked()
	if len(b) != 1 || b[0] != "stuck" {
		t.Fatalf("Blocked() = %v, want [stuck]", b)
	}
}

func TestSchedulingInPastPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic for negative absolute time")
		}
	}()
	k := NewKernel(1)
	p := &Proc{k: k, name: "x"}
	k.now = 100
	k.schedule(p, 50, wakeTimer)
}

func TestDeterminismAcrossRuns(t *testing.T) {
	run := func(seed int64) []string {
		k := NewKernel(seed)
		var log []string
		q := NewQueue[int](k)
		for i := 0; i < 5; i++ {
			i := i
			k.Go(fmt.Sprintf("prod%d", i), func(p *Proc) {
				for j := 0; j < 20; j++ {
					p.Sleep(Time(k.Rand().Intn(100)))
					q.Put(i*100 + j)
				}
			})
		}
		k.Go("cons", func(p *Proc) {
			for n := 0; n < 100; n++ {
				v := q.Get(p)
				log = append(log, fmt.Sprintf("%d@%v", v, p.Now()))
			}
		})
		k.Run()
		return log
	}
	a, b := run(7), run(7)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("identical seeds produced different event orders")
	}
	c := run(8)
	if reflect.DeepEqual(a, c) {
		t.Fatal("different seeds produced identical random event orders (suspicious)")
	}
}

func TestTimeString(t *testing.T) {
	cases := []struct {
		t    Time
		want string
	}{
		{0, "0us"},
		{999, "999us"},
		{1500, "1.500ms"},
		{2 * Second, "2.000s"},
		{2500 * Millisecond, "2.500s"},
	}
	for _, c := range cases {
		if got := c.t.String(); got != c.want {
			t.Errorf("Time(%d).String() = %q, want %q", int64(c.t), got, c.want)
		}
	}
}

func TestTimeConversions(t *testing.T) {
	if FromSeconds(1.5) != 1500*Millisecond {
		t.Fatalf("FromSeconds(1.5) = %v", FromSeconds(1.5))
	}
	if got := (3 * Second).Seconds(); got != 3.0 {
		t.Fatalf("Seconds() = %v", got)
	}
}

// Property: FromSeconds and Seconds round-trip within one microsecond for
// non-negative times up to a day.
func TestQuickTimeRoundTrip(t *testing.T) {
	f := func(us uint32) bool {
		tm := Time(us)
		back := FromSeconds(tm.Seconds())
		d := back - tm
		return d >= -1 && d <= 1
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: with n sleepers of arbitrary durations, the kernel clock ends at
// the maximum duration and every sleeper wakes exactly once at its own time.
func TestQuickSleepersEndAtMax(t *testing.T) {
	f := func(ds []uint16) bool {
		if len(ds) == 0 {
			return true
		}
		k := NewKernel(1)
		var max Time
		woke := make([]Time, len(ds))
		for i, d := range ds {
			i, d := i, Time(d)
			if d > max {
				max = d
			}
			k.Go(fmt.Sprintf("s%d", i), func(p *Proc) {
				p.Sleep(d)
				woke[i] = p.Now()
			})
		}
		k.Run()
		if k.Now() != max {
			return false
		}
		for i, d := range ds {
			if woke[i] != Time(d) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}
