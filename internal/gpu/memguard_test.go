package gpu

import (
	"testing"

	"repro/internal/sim"
)

// AllocBlocking is Reserve and the wait for its grant, on p.
func (d *Device) AllocBlocking(p *sim.Proc, bytes int64) error {
	granted, err := d.Reserve(bytes)
	if granted != nil {
		p.Wait(granted)
		granted.Unref()
	}
	return err
}

func TestAllocBlockingWaitsForFree(t *testing.T) {
	k := sim.NewKernel(1)
	d := NewDevice(k, testSpec(), 0) // 1 MiB
	var grantedAt sim.Time
	k.Go("holder", func(p *sim.Proc) {
		if err := d.Alloc(1 << 20); err != nil {
			t.Errorf("holder alloc: %v", err)
		}
		p.Sleep(100)
		d.Free(1 << 20)
	})
	k.Go("waiter", func(p *sim.Proc) {
		p.Sleep(1)
		if err := d.AllocBlocking(p, 1<<19); err != nil {
			t.Errorf("blocking alloc: %v", err)
		}
		grantedAt = p.Now()
	})
	k.Run()
	if grantedAt != 100 {
		t.Fatalf("blocked alloc granted at %v, want 100us", grantedAt)
	}
	if d.MemUsed() != 1<<19 {
		t.Fatalf("MemUsed = %d", d.MemUsed())
	}
}

func TestAllocBlockingImmediateWhenFree(t *testing.T) {
	k := sim.NewKernel(1)
	d := NewDevice(k, testSpec(), 0)
	var at sim.Time = -1
	k.Go("a", func(p *sim.Proc) {
		if err := d.AllocBlocking(p, 100); err != nil {
			t.Errorf("alloc: %v", err)
		}
		at = p.Now()
	})
	k.Run()
	if at != 0 {
		t.Fatalf("uncontended blocking alloc waited until %v", at)
	}
}

func TestAllocBlockingUnsatisfiable(t *testing.T) {
	k := sim.NewKernel(1)
	d := NewDevice(k, testSpec(), 0)
	k.Go("a", func(p *sim.Proc) {
		if err := d.AllocBlocking(p, 2<<20); err == nil {
			t.Error("over-capacity blocking alloc accepted")
		}
		if err := d.AllocBlocking(p, -1); err == nil {
			t.Error("negative blocking alloc accepted")
		}
	})
	k.Run()
}

// TestAllocBlockingNoHeadOfLineBypass is the regression test for the FIFO
// bypass bug: the old wake-all-and-recheck scheme let every late small
// request take freed capacity ahead of the parked FIFO head, so a
// 90%-capacity waiter starved for as long as small traffic kept churning.
// With head-of-line reservation the big waiter is granted the instant the
// original holder has drained enough (t=80 leaves exactly 900 bytes free),
// regardless of the churn.
func TestAllocBlockingNoHeadOfLineBypass(t *testing.T) {
	k := sim.NewKernel(1)
	spec := testSpec()
	spec.MemBytes = 1000
	d := NewDevice(k, spec, 0)

	// Holder occupies 90% and drains in 9 steps, fully free at t=90.
	k.Go("holder", func(p *sim.Proc) {
		if err := d.Alloc(900); err != nil {
			t.Errorf("holder: %v", err)
		}
		for i := 0; i < 9; i++ {
			p.Sleep(10)
			d.Free(100)
		}
	})

	// The 90%-capacity waiter parks at t=1 (only 100 bytes free).
	var bigGrantedAt sim.Time = -1
	k.Go("big", func(p *sim.Proc) {
		p.Sleep(1)
		if err := d.AllocBlocking(p, 900); err != nil {
			t.Errorf("big: %v", err)
		}
		bigGrantedAt = p.Now()
	})

	// Steady small traffic behind it: arrivals every 4us holding 100 bytes
	// for 10us each keep 200-300 bytes resident at all times, so under the
	// old scheme no notify ever found ≤100 bytes in use and the big waiter
	// starved until the churn stopped (t≈208).
	var smallGrants []sim.Time
	for i := 0; i < 50; i++ {
		at := sim.Time(2 + 4*i)
		k.Go("small", func(p *sim.Proc) {
			p.Sleep(at)
			if err := d.AllocBlocking(p, 100); err != nil {
				t.Errorf("small@%v: %v", at, err)
			}
			smallGrants = append(smallGrants, p.Now())
			p.Sleep(10)
			d.Free(100)
		})
	}

	k.Run()
	if bigGrantedAt != 80 {
		t.Fatalf("90%%-capacity waiter granted at t=%v, want t=80 (head-of-line reservation)", bigGrantedAt)
	}
	if len(smallGrants) != 50 {
		t.Fatalf("granted %d small requests, want 50", len(smallGrants))
	}
	for i := 1; i < len(smallGrants); i++ {
		if smallGrants[i] < smallGrants[i-1] {
			t.Fatalf("small grants out of FIFO order at %d: %v", i, smallGrants[:i+1])
		}
	}
	if d.MemUsed() != 900 {
		t.Fatalf("MemUsed = %d after drain, want 900 (big waiter holds)", d.MemUsed())
	}
}

func TestAllocBlockingServesWaitersInOrder(t *testing.T) {
	k := sim.NewKernel(1)
	d := NewDevice(k, testSpec(), 0) // 1 MiB
	var order []int
	k.Go("holder", func(p *sim.Proc) {
		d.Alloc(1 << 20)
		p.Sleep(50)
		d.Free(1 << 19) // room for one waiter
		p.Sleep(50)
		d.Free(1 << 19) // room for the other
	})
	for i := 1; i <= 2; i++ {
		i := i
		k.Go("w", func(p *sim.Proc) {
			p.Sleep(sim.Time(i)) // deterministic arrival order
			if err := d.AllocBlocking(p, 1<<19); err != nil {
				t.Errorf("w%d: %v", i, err)
			}
			order = append(order, i)
		})
	}
	k.Run()
	if len(order) != 2 || order[0] != 1 || order[1] != 2 {
		t.Fatalf("grant order = %v, want [1 2]", order)
	}
}
