package interpose

import (
	"testing"

	"repro/internal/cuda"
	"repro/internal/sim"
)

func TestMTSessionSerializesThreads(t *testing.T) {
	k := sim.NewKernel(1)
	f := newFakeFabric(k)
	ip := New(f, nil, 9, 3, 1, "MC", 0, true)
	sess := NewMTSession(k, ip)
	done := 0
	for i := 0; i < 2; i++ {
		i := i
		k.Go("host-thread", func(p *sim.Proc) {
			c := sess.Thread(p)
			if i == 0 {
				if err := c.SetDevice(0); err != nil {
					t.Errorf("SetDevice: %v", err)
				}
			}
			p.Sleep(sim.Time(i)) // skew the threads
			for j := 0; j < 5; j++ {
				ptr, err := c.Malloc(64)
				if err != nil {
					t.Errorf("thread %d malloc: %v", i, err)
					return
				}
				if err := c.Memcpy(cuda.H2D, ptr, 32); err != nil {
					t.Errorf("thread %d memcpy: %v", i, err)
					return
				}
				if err := c.Launch(cuda.Kernel{Compute: 10}, cuda.DefaultStream); err != nil {
					t.Errorf("thread %d launch: %v", i, err)
					return
				}
				if err := c.DeviceSynchronize(); err != nil {
					t.Errorf("thread %d sync: %v", i, err)
					return
				}
			}
			done++
		})
	}
	k.Run()
	if done != 2 {
		t.Fatalf("threads finished = %d", done)
	}
	// The wire must carry a single, strictly increasing sequence — the
	// application-intended order across both threads.
	var prev uint64
	for _, c := range f.received {
		if c.Seq <= prev {
			t.Fatalf("out-of-order call %v: seq %d after %d", c.ID, c.Seq, prev)
		}
		prev = c.Seq
	}
	if len(f.received) < 40 {
		t.Fatalf("only %d calls received", len(f.received))
	}
}

func TestMTSessionBlockingCallHoldsOrder(t *testing.T) {
	// While one thread waits on a blocking D2H, the other thread's calls
	// must not be interleaved into the reply stream.
	k := sim.NewKernel(1)
	f := newFakeFabric(k)
	ip := New(f, nil, 9, 3, 1, "MC", 0, true)
	sess := NewMTSession(k, ip)
	var errs []error
	k.Go("t1", func(p *sim.Proc) {
		c := sess.Thread(p)
		c.SetDevice(0)
		ptr, _ := c.Malloc(128)
		for i := 0; i < 10; i++ {
			if err := c.Memcpy(cuda.D2H, ptr, 64); err != nil {
				errs = append(errs, err)
			}
		}
	})
	k.Go("t2", func(p *sim.Proc) {
		c := sess.Thread(p)
		for i := 0; i < 10; i++ {
			p.Sleep(1)
			if err := c.Launch(cuda.Kernel{Compute: 10}, cuda.DefaultStream); err != nil {
				errs = append(errs, err)
			}
		}
	})
	k.Run()
	if len(errs) > 0 {
		t.Fatalf("cross-thread interleaving broke the session: %v", errs[0])
	}
}

// TestMTSessionForwardsEveryCall drives every cuda.Client call through two
// thread views of one session: each reaches the shared binding in the
// threads' intended order, and the second thread's exit tears it down.
func TestMTSessionForwardsEveryCall(t *testing.T) {
	k := sim.NewKernel(1)
	f := newFakeFabric(k)
	sess := NewMTSession(k, New(f, nil, 9, 3, 1, "MC", 0, true))
	check := func(what string, err error) {
		if err != nil {
			t.Errorf("%s: %v", what, err)
		}
	}
	var ev cuda.EventID
	k.Go("t1", func(p *sim.Proc) {
		c := sess.Thread(p)
		if c.Proc() != p {
			t.Error("thread view runs on another process")
		}
		check("SetDevice", c.SetDevice(0))
		s, err := c.StreamCreate()
		check("StreamCreate", err)
		check("MemcpyAsync", c.MemcpyAsync(cuda.H2D, cuda.Ptr{ID: 1, Size: 8}, 8, s))
		check("StreamSynchronize", c.StreamSynchronize(s))
		check("StreamDestroy", c.StreamDestroy(s))
		ev, err = c.EventCreate()
		check("EventCreate", err)
		check("EventRecord", c.EventRecord(ev, cuda.DefaultStream))
	})
	k.Go("t2", func(p *sim.Proc) {
		c := sess.Thread(p)
		p.Sleep(sim.Millisecond) // after t1's calls
		if n := c.DeviceCount(); n != 4 {
			t.Errorf("DeviceCount = %d", n)
		}
		ptr, err := c.Malloc(64)
		check("Malloc", err)
		check("Free", c.Free(ptr))
		check("EventSynchronize", c.EventSynchronize(ev))
		_, err = c.EventElapsed(ev, ev)
		check("EventElapsed", err)
		check("EventDestroy", c.EventDestroy(ev))
		check("ThreadExit", c.ThreadExit())
	})
	k.Run()
	want := []cuda.CallID{cuda.CallSetDevice, cuda.CallStreamCreate, cuda.CallMemcpyAsync,
		cuda.CallStreamSync, cuda.CallStreamDestroy, cuda.CallEventCreate, cuda.CallEventRecord,
		cuda.CallMalloc, cuda.CallFree, cuda.CallEventSync, cuda.CallEventElapsed,
		cuda.CallEventDestroy, cuda.CallThreadExit}
	if len(f.received) != len(want) {
		t.Fatalf("received %d calls, want %d", len(f.received), len(want))
	}
	for i, c := range f.received {
		if c.ID != want[i] || c.Seq != uint64(i+1) {
			t.Fatalf("call %d = %v seq %d, want %v seq %d", i, c.ID, c.Seq, want[i], i+1)
		}
	}
	if len(f.released) != 1 {
		t.Fatalf("ThreadExit released %d bindings, want 1", len(f.released))
	}
}
