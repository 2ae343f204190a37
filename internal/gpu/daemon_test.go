package gpu

import (
	"runtime"
	"testing"

	"repro/internal/sim"
)

// TestResetCyclesAbandonNoCoroutine: a worker that reuses one kernel for many
// simulations builds a device and arms a timer in each. The driver is a
// daemon and the timer a heap entry, so a Reset leaves nothing parked behind;
// as coroutine processes each cycle abandoned one suspended goroutine per
// service.
func TestResetCyclesAbandonNoCoroutine(t *testing.T) {
	k := sim.NewKernel(1)
	before := runtime.NumGoroutine()
	for i := 0; i < 200; i++ {
		k.Reset(int64(i))
		k.After(5, func() {})
		d := NewDevice(k, testSpec(), 0)
		a := d.NewContext().NewStream().Submit(&Op{Kind: OpKernel, Compute: 50000})
		b := d.NewContext().NewStream().Submit(&Op{Kind: OpH2D, Bytes: 500})
		k.RunUntil(1000)
		if !a.Fired() || !b.Fired() || d.Stats().Switches != 1 {
			t.Fatalf("cycle %d: kernel fired=%v copy fired=%v switches=%d, want true true 1",
				i, a.Fired(), b.Fired(), d.Stats().Switches)
		}
		if got := k.Blocked(); len(got) != 1 {
			t.Fatalf("cycle %d: Blocked = %v, want the idle driver daemon", i, got)
		}
	}
	if after := runtime.NumGoroutine(); after > before {
		t.Fatalf("goroutines grew from %d to %d over 200 reset cycles", before, after)
	}
}

// TestCloseDuringContextSwitch: Close while the driver sleeps through a
// context switch takes effect when the sleep ends, after the switch has been
// accounted — the driver then leaves the process table.
func TestCloseDuringContextSwitch(t *testing.T) {
	k := sim.NewKernel(1)
	d := NewDevice(k, testSpec(), 0)
	first := d.NewContext().NewStream()
	second := d.NewContext().NewStream()
	k.Go("app", func(p *sim.Proc) {
		p.Wait(first.Submit(&Op{Kind: OpKernel, Compute: 50000})) // 50us
		second.Submit(&Op{Kind: OpKernel, Compute: 50000})
		p.Sleep(10) // the driver is mid-switch (100us) now
		d.Close()
	})
	k.Run()
	if k.Now() != 150 {
		t.Fatalf("run ended at %v, want 150us (the end of the switch)", k.Now())
	}
	if st := d.Stats(); st.Switches != 1 || st.SwitchTime != 100 || st.KernelsDone != 1 {
		t.Fatalf("stats %+v, want 1 switch of 100us and 1 kernel", st)
	}
	if d.resident != second.ctx {
		t.Fatal("the switch begun before Close did not complete")
	}
	if k.ProcCount() != 0 {
		t.Fatalf("ProcCount = %d after Close, want 0", k.ProcCount())
	}
}
