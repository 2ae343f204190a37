package cuda

import (
	"errors"
	"testing"

	"repro/internal/gpu"
	"repro/internal/sim"
)

func TestEventTimingBracketsKernel(t *testing.T) {
	k := sim.NewKernel(1)
	rt := NewRuntime(k, []*gpu.Device{testDev(k)}, Config{})
	var elapsed sim.Time
	k.Go("app", func(p *sim.Proc) {
		c := rt.NewThread(p, 1)
		start, err := c.EventCreate()
		if err != nil {
			t.Errorf("EventCreate: %v", err)
			return
		}
		end, _ := c.EventCreate()
		c.EventRecord(start, DefaultStream)
		c.Launch(Kernel{Compute: 50000}, DefaultStream) // 50us
		c.EventRecord(end, DefaultStream)
		if err := c.EventSynchronize(end); err != nil {
			t.Errorf("EventSynchronize: %v", err)
			return
		}
		elapsed, err = c.EventElapsed(start, end)
		if err != nil {
			t.Errorf("EventElapsed: %v", err)
		}
	})
	k.Run()
	if elapsed != 50 {
		t.Fatalf("elapsed = %v, want 50us", elapsed)
	}
}

// TestEventElapsedReversedPair asks for the elapsed time of a completed pair
// both ways: an end recorded before its start is cudaErrorInvalidValue, never
// a negative duration; a pair finishing at the same instant is zero.
func TestEventElapsedReversedPair(t *testing.T) {
	k := sim.NewKernel(1)
	rt := NewRuntime(k, []*gpu.Device{testDev(k)}, Config{})
	k.Go("app", func(p *sim.Proc) {
		c := rt.NewThread(p, 1)
		first, _ := c.EventCreate()
		second, _ := c.EventCreate()
		c.EventRecord(first, DefaultStream)
		c.Launch(Kernel{Compute: 50000}, DefaultStream) // 50us
		c.EventRecord(second, DefaultStream)
		c.EventSynchronize(second)
		if d, err := c.EventElapsed(first, second); err != nil || d != 50 {
			t.Errorf("forward elapsed = %v, %v; want 50us", d, err)
		}
		if d, err := c.EventElapsed(second, first); !errors.Is(err, ErrInvalidValue) || d != 0 {
			t.Errorf("reversed elapsed = %v, %v; want 0, ErrInvalidValue", d, err)
		}
		if d, err := c.EventElapsed(first, first); err != nil || d != 0 {
			t.Errorf("same-event elapsed = %v, %v; want 0", d, err)
		}
	})
	k.Run()
}

func TestEventMarkersRespectStreamOrder(t *testing.T) {
	k := sim.NewKernel(1)
	rt := NewRuntime(k, []*gpu.Device{testDev(k)}, Config{})
	var syncedAt sim.Time
	k.Go("app", func(p *sim.Proc) {
		c := rt.NewThread(p, 1)
		ev, _ := c.EventCreate()
		c.Launch(Kernel{Compute: 30000}, DefaultStream) // 30us
		c.EventRecord(ev, DefaultStream)
		c.EventSynchronize(ev)
		syncedAt = p.Now()
	})
	k.Run()
	if syncedAt != 30 {
		t.Fatalf("event completed at %v, want 30us (after the kernel)", syncedAt)
	}
}

func TestEventErrors(t *testing.T) {
	k := sim.NewKernel(1)
	rt := NewRuntime(k, []*gpu.Device{testDev(k)}, Config{})
	k.Go("app", func(p *sim.Proc) {
		c := rt.NewThread(p, 1)
		if err := c.EventRecord(99, DefaultStream); !errors.Is(err, ErrInvalidEvent) {
			t.Errorf("record bogus event = %v", err)
		}
		ev, _ := c.EventCreate()
		if err := c.EventSynchronize(ev); !errors.Is(err, ErrNotReady) {
			t.Errorf("sync unrecorded event = %v", err)
		}
		ev2, _ := c.EventCreate()
		if _, err := c.EventElapsed(ev, ev2); !errors.Is(err, ErrNotReady) {
			t.Errorf("elapsed of unrecorded events = %v", err)
		}
		if err := c.EventDestroy(ev); err != nil {
			t.Errorf("destroy: %v", err)
		}
		if err := c.EventDestroy(ev); !errors.Is(err, ErrInvalidEvent) {
			t.Errorf("double destroy = %v", err)
		}
	})
	k.Run()
}

func TestEventRecordOnExplicitStream(t *testing.T) {
	k := sim.NewKernel(1)
	rt := NewRuntime(k, []*gpu.Device{testDev(k)}, Config{})
	var e1, e2 sim.Time
	k.Go("app", func(p *sim.Proc) {
		c := rt.NewThread(p, 1)
		s1, _ := c.StreamCreate()
		s2, _ := c.StreamCreate()
		evA, _ := c.EventCreate()
		evB, _ := c.EventCreate()
		c.Launch(Kernel{Compute: 40000, Occupancy: 0.4}, s1) // 100us solo
		c.EventRecord(evA, s1)
		c.Launch(Kernel{Compute: 8000, Occupancy: 0.4}, s2) // 20us solo
		c.EventRecord(evB, s2)
		c.EventSynchronize(evA)
		e1 = p.Now()
		c.EventSynchronize(evB)
		e2 = p.Now()
	})
	k.Run()
	// Stream 2's small kernel finishes first; events track their own
	// streams independently.
	if e2 > e1 {
		t.Fatalf("evB synced at %v after evA at %v", e2, e1)
	}
}
