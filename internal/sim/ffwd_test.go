package sim

import (
	"reflect"
	"testing"
)

// TestFastForwardCountsHorizonJumps: a clock jump of exactly the horizon
// counts as a fast-forward; a jump one tick short of it does not.
func TestFastForwardCountsHorizonJumps(t *testing.T) {
	k := NewKernel(1)
	k.SetFFHorizon(100)
	k.Go("short-then-long", func(p *Proc) {
		p.Sleep(99)  // below horizon: stepped, not counted
		p.Sleep(100) // exactly horizon: counted
		p.Sleep(250) // above horizon: counted
	})
	k.Run()
	jumps, skipped := k.FastForwards()
	if jumps != 2 {
		t.Fatalf("jumps = %d, want 2 (the 100 and 250 tick gaps)", jumps)
	}
	if skipped != 350 {
		t.Fatalf("skipped = %v, want 350", skipped)
	}
	if k.Now() != 449 {
		t.Fatalf("clock = %v, want 449", k.Now())
	}
}

// TestTimerFiresExactlyAtQuiescenceHorizon: a timer scheduled exactly one
// horizon into quiet time fires at the right instant, and the jump that
// reaches it is accounted. Timers run through the kernel's internal timer
// process, so this exercises the fast-forward path with a wakeup that is not
// a plain process activation.
func TestTimerFiresExactlyAtQuiescenceHorizon(t *testing.T) {
	k := NewKernel(1)
	k.SetFFHorizon(500)
	var firedAt Time = -1
	k.After(500, func() { firedAt = k.Now() })
	k.Run()
	if firedAt != 500 {
		t.Fatalf("timer fired at %v, want exactly 500 (the horizon)", firedAt)
	}
	jumps, skipped := k.FastForwards()
	if jumps == 0 {
		t.Fatal("reaching the timer required a horizon-sized jump; none was counted")
	}
	if skipped < 500 {
		t.Fatalf("skipped = %v, want at least the 500-tick quiet gap", skipped)
	}
}

// TestRunUntilLimitSnapCountsAsFastForward: when RunUntil parks the world and
// snaps the clock to the horizon, that jump is fast-forward too.
func TestRunUntilLimitSnapCountsAsFastForward(t *testing.T) {
	k := NewKernel(1)
	k.SetFFHorizon(10)
	k.Go("far-future", func(p *Proc) {
		p.Sleep(5)
		p.Sleep(10_000) // beyond the first RunUntil limit
	})
	k.RunUntil(1000)
	if k.Now() != 1000 {
		t.Fatalf("clock = %v, want snapped to the 1000 limit", k.Now())
	}
	jumps, skipped := k.FastForwards()
	if jumps != 1 || skipped != 995 {
		t.Fatalf("jumps, skipped = %d, %v; want 1, 995 (the 5..1000 snap)", jumps, skipped)
	}
}

// TestBlockedReturnsSortedNames: Blocked's report is sorted by name, never
// map-iteration order. Registration order is deliberately shuffled relative
// to the alphabetical order the contract promises.
func TestBlockedReturnsSortedNames(t *testing.T) {
	k := NewKernel(1)
	ev := k.NewEvent() // never fired: everyone below deadlocks
	for _, name := range []string{"zeta", "alpha", "mu", "beta", "omega"} {
		k.Go(name, func(p *Proc) { p.Wait(ev) })
	}
	k.Run()
	want := []string{"alpha", "beta", "mu", "omega", "zeta"}
	for i := 0; i < 10; i++ { // map iteration varies per call; sorting must not
		if got := k.Blocked(); !reflect.DeepEqual(got, want) {
			t.Fatalf("Blocked() = %v, want %v", got, want)
		}
	}
}
