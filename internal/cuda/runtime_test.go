package cuda

import (
	"errors"
	"testing"

	"repro/internal/gpu"
	"repro/internal/sim"
)

// zero-overhead config so durations are pure device time.
func zcfg() Config { return Config{} }

func testDev(k *sim.Kernel) *gpu.Device {
	spec := gpu.Spec{
		Name: "t", ComputeRate: 1000, MemBandwidth: 100,
		H2DBandwidth: 10, D2HBandwidth: 10, CopyEngines: 2,
		ContextSwitch: 100, TimeSlice: sim.Millisecond, MemBytes: 1 << 20, Weight: 1,
	}
	return gpu.NewDevice(k, spec, 0)
}

func TestSetDeviceValidation(t *testing.T) {
	k := sim.NewKernel(1)
	rt := NewRuntime(k, []*gpu.Device{testDev(k)}, zcfg())
	k.Go("app", func(p *sim.Proc) {
		c := rt.NewThread(p, 1)
		if err := c.SetDevice(0); err != nil {
			t.Errorf("SetDevice(0) = %v", err)
		}
		if err := c.SetDevice(1); !errors.Is(err, ErrInvalidDevice) {
			t.Errorf("SetDevice(1) = %v, want ErrInvalidDevice", err)
		}
		if err := c.SetDevice(-1); !errors.Is(err, ErrInvalidDevice) {
			t.Errorf("SetDevice(-1) = %v, want ErrInvalidDevice", err)
		}
		if c.DeviceCount() != 1 {
			t.Errorf("DeviceCount = %d", c.DeviceCount())
		}
	})
	k.Run()
}

func TestMallocFreeAccounting(t *testing.T) {
	k := sim.NewKernel(1)
	dev := testDev(k)
	rt := NewRuntime(k, []*gpu.Device{dev}, zcfg())
	k.Go("app", func(p *sim.Proc) {
		c := rt.NewThread(p, 1)
		ptr, err := c.Malloc(1000)
		if err != nil {
			t.Errorf("Malloc: %v", err)
		}
		if dev.MemUsed() != 1000 {
			t.Errorf("MemUsed = %d, want 1000", dev.MemUsed())
		}
		if _, err := c.Malloc(0); !errors.Is(err, ErrInvalidValue) {
			t.Errorf("Malloc(0) = %v", err)
		}
		if _, err := c.Malloc(1 << 21); !errors.Is(err, ErrMemoryAllocation) {
			t.Errorf("oversized Malloc err = %v", err)
		}
		if err := c.Free(ptr); err != nil {
			t.Errorf("Free: %v", err)
		}
		if err := c.Free(ptr); !errors.Is(err, ErrInvalidPtr) {
			t.Errorf("double Free = %v", err)
		}
		if dev.MemUsed() != 0 {
			t.Errorf("MemUsed = %d after free", dev.MemUsed())
		}
	})
	k.Run()
}

func TestSyncMemcpyBlocksForDuration(t *testing.T) {
	k := sim.NewKernel(1)
	rt := NewRuntime(k, []*gpu.Device{testDev(k)}, zcfg())
	var elapsed sim.Time
	k.Go("app", func(p *sim.Proc) {
		c := rt.NewThread(p, 1)
		ptr, _ := c.Malloc(1000)
		start := p.Now()
		if err := c.Memcpy(H2D, ptr, 500); err != nil { // 50us at 10 B/us
			t.Errorf("Memcpy: %v", err)
		}
		elapsed = p.Now() - start
	})
	k.Run()
	if elapsed != 50 {
		t.Fatalf("sync memcpy blocked %v, want 50us", elapsed)
	}
}

func TestLaunchIsAsynchronous(t *testing.T) {
	k := sim.NewKernel(1)
	rt := NewRuntime(k, []*gpu.Device{testDev(k)}, zcfg())
	var launchReturned, synced sim.Time
	k.Go("app", func(p *sim.Proc) {
		c := rt.NewThread(p, 1)
		if err := c.Launch(Kernel{Name: "k", Compute: 50000}, DefaultStream); err != nil {
			t.Errorf("Launch: %v", err)
		}
		launchReturned = p.Now()
		if err := c.DeviceSynchronize(); err != nil {
			t.Errorf("DeviceSynchronize: %v", err)
		}
		synced = p.Now()
	})
	k.Run()
	if launchReturned != 0 {
		t.Fatalf("Launch blocked until %v, want immediate return", launchReturned)
	}
	if synced != 50 {
		t.Fatalf("sync completed at %v, want 50us", synced)
	}
}

func TestStreamLifecycleAndSync(t *testing.T) {
	k := sim.NewKernel(1)
	rt := NewRuntime(k, []*gpu.Device{testDev(k)}, zcfg())
	k.Go("app", func(p *sim.Proc) {
		c := rt.NewThread(p, 1)
		s1, err := c.StreamCreate()
		if err != nil || s1 == DefaultStream {
			t.Errorf("StreamCreate = %v, %v", s1, err)
		}
		ptr, _ := c.Malloc(1000)
		if err := c.MemcpyAsync(H2D, ptr, 300, s1); err != nil { // 30us
			t.Errorf("MemcpyAsync: %v", err)
		}
		if err := c.Launch(Kernel{Compute: 20000}, s1); err != nil { // 20us
			t.Errorf("Launch: %v", err)
		}
		start := p.Now()
		if err := c.StreamSynchronize(s1); err != nil {
			t.Errorf("StreamSynchronize: %v", err)
		}
		if got := p.Now() - start; got != 50 {
			t.Errorf("stream sync waited %v, want 50us (FIFO: copy then kernel)", got)
		}
		if err := c.StreamSynchronize(99); !errors.Is(err, ErrInvalidStream) {
			t.Errorf("sync of bogus stream = %v", err)
		}
		if err := c.StreamDestroy(s1); err != nil {
			t.Errorf("StreamDestroy: %v", err)
		}
		if err := c.StreamDestroy(s1); !errors.Is(err, ErrInvalidStream) {
			t.Errorf("double destroy = %v", err)
		}
		if err := c.StreamDestroy(DefaultStream); !errors.Is(err, ErrInvalidValue) {
			t.Errorf("destroying default stream = %v", err)
		}
	})
	k.Run()
}

func TestTwoStreamsOverlapCopyAndCompute(t *testing.T) {
	k := sim.NewKernel(1)
	rt := NewRuntime(k, []*gpu.Device{testDev(k)}, zcfg())
	var total sim.Time
	k.Go("app", func(p *sim.Proc) {
		c := rt.NewThread(p, 1)
		s1, _ := c.StreamCreate()
		s2, _ := c.StreamCreate()
		ptr, _ := c.Malloc(1000)
		c.MemcpyAsync(H2D, ptr, 500, s1)     // 50us on copy engine
		c.Launch(Kernel{Compute: 50000}, s2) // 50us on compute engine
		c.StreamSynchronize(s1)
		c.StreamSynchronize(s2)
		total = p.Now()
	})
	k.Run()
	if total != 50 {
		t.Fatalf("overlapped streams took %v, want 50us", total)
	}
}

func TestDeviceSynchronizeCoversAllStreams(t *testing.T) {
	k := sim.NewKernel(1)
	rt := NewRuntime(k, []*gpu.Device{testDev(k)}, zcfg())
	var total sim.Time
	k.Go("app", func(p *sim.Proc) {
		c := rt.NewThread(p, 1)
		s1, _ := c.StreamCreate()
		s2, _ := c.StreamCreate()
		c.Launch(Kernel{Compute: 30000}, s1)
		c.Launch(Kernel{Compute: 70000}, s2)
		c.DeviceSynchronize()
		total = p.Now()
	})
	k.Run()
	// Both compute-bound kernels share: 30k kernel under slowdown 2 until
	// t=60, then 70k finishes its remaining 40k solo: 60+40=100.
	if total != 100 {
		t.Fatalf("device sync returned at %v, want 100us", total)
	}
}

func TestThreadExitFreesAllocations(t *testing.T) {
	k := sim.NewKernel(1)
	dev := testDev(k)
	rt := NewRuntime(k, []*gpu.Device{dev}, zcfg())
	k.Go("app", func(p *sim.Proc) {
		c := rt.NewThread(p, 1)
		c.Malloc(400)
		c.Malloc(600)
		if err := c.ThreadExit(); err != nil {
			t.Errorf("ThreadExit: %v", err)
		}
		if dev.MemUsed() != 0 {
			t.Errorf("MemUsed = %d after ThreadExit, want 0", dev.MemUsed())
		}
		if err := c.ThreadExit(); !errors.Is(err, ErrThreadExited) {
			t.Errorf("second ThreadExit = %v", err)
		}
		if _, err := c.Malloc(10); !errors.Is(err, ErrThreadExited) {
			t.Errorf("Malloc after exit = %v", err)
		}
	})
	k.Run()
}

func TestThreadsOfOneProcessShareContext(t *testing.T) {
	k := sim.NewKernel(1)
	dev := testDev(k)
	rt := NewRuntime(k, []*gpu.Device{dev}, zcfg())
	done := 0
	for i := 0; i < 2; i++ {
		i := i
		k.Go("thread", func(p *sim.Proc) {
			c := rt.NewThread(p, i+1)
			c.Launch(Kernel{Compute: 50000}, DefaultStream)
			// Threads share the default stream of the shared context, so
			// their kernels serialize on the stream but no context switch
			// occurs.
			c.DeviceSynchronize()
			done++
		})
	}
	k.Run()
	if done != 2 {
		t.Fatal("threads did not finish")
	}
	if sw := dev.Stats().Switches; sw != 0 {
		t.Fatalf("switches = %d within one process, want 0", sw)
	}
}

func TestSeparateRuntimesGetSeparateContexts(t *testing.T) {
	k := sim.NewKernel(1)
	dev := testDev(k)
	rtA := NewRuntime(k, []*gpu.Device{dev}, zcfg())
	rtB := NewRuntime(k, []*gpu.Device{dev}, zcfg())
	k.Go("a", func(p *sim.Proc) {
		c := rtA.NewThread(p, 1)
		c.Launch(Kernel{Compute: 50000}, DefaultStream)
		c.DeviceSynchronize()
	})
	k.Go("b", func(p *sim.Proc) {
		c := rtB.NewThread(p, 2)
		c.Launch(Kernel{Compute: 50000}, DefaultStream)
		c.DeviceSynchronize()
	})
	k.Run()
	if sw := dev.Stats().Switches; sw == 0 {
		t.Fatal("expected context switching between separate processes")
	}
}

func TestContextCreateChargedOnce(t *testing.T) {
	k := sim.NewKernel(1)
	cfg := Config{ContextCreate: 1000}
	rt := NewRuntime(k, []*gpu.Device{testDev(k)}, cfg)
	var first, second sim.Time
	k.Go("app", func(p *sim.Proc) {
		c := rt.NewThread(p, 1)
		t0 := p.Now()
		c.Malloc(10)
		first = p.Now() - t0
		t0 = p.Now()
		c.Malloc(10)
		second = p.Now() - t0
	})
	k.Run()
	if first < 1000 {
		t.Fatalf("first call paid %v, want >= 1ms context create", first)
	}
	if second >= 1000 {
		t.Fatalf("second call paid %v, want no context create", second)
	}
}

func TestAPIOverheadCharged(t *testing.T) {
	k := sim.NewKernel(1)
	cfg := Config{APIOverhead: 5}
	rt := NewRuntime(k, []*gpu.Device{testDev(k)}, cfg)
	var elapsed sim.Time
	k.Go("app", func(p *sim.Proc) {
		c := rt.NewThread(p, 1)
		t0 := p.Now()
		c.DeviceCount()
		c.DeviceCount()
		elapsed = p.Now() - t0
		if c.Calls() != 2 {
			t.Errorf("Calls = %d, want 2", c.Calls())
		}
	})
	k.Run()
	if elapsed != 10 {
		t.Fatalf("two calls cost %v, want 10us", elapsed)
	}
}

func TestMemcpyValidation(t *testing.T) {
	k := sim.NewKernel(1)
	rt := NewRuntime(k, []*gpu.Device{testDev(k)}, zcfg())
	k.Go("app", func(p *sim.Proc) {
		c := rt.NewThread(p, 1)
		ptr, _ := c.Malloc(100)
		if err := c.Memcpy(H2D, ptr, 200); !errors.Is(err, ErrInvalidValue) {
			t.Errorf("overlong memcpy = %v", err)
		}
		if err := c.Memcpy(H2D, ptr, 0); !errors.Is(err, ErrInvalidValue) {
			t.Errorf("zero memcpy = %v", err)
		}
		if err := c.MemcpyAsync(D2H, ptr, 200, DefaultStream); !errors.Is(err, ErrInvalidValue) {
			t.Errorf("overlong async memcpy = %v", err)
		}
		if err := c.Launch(Kernel{Compute: -1}, DefaultStream); !errors.Is(err, ErrInvalidValue) {
			t.Errorf("negative kernel = %v", err)
		}
	})
	k.Run()
}

func TestDirAndCallIDStrings(t *testing.T) {
	if H2D.String() != "HostToDevice" || D2H.String() != "DeviceToHost" {
		t.Fatal("Dir strings wrong")
	}
	if CallMalloc.String() != "cudaMalloc" {
		t.Fatalf("CallMalloc = %q", CallMalloc.String())
	}
	if CallID(99).String() != "CallID(99)" {
		t.Fatal("unknown CallID formatting")
	}
}

func TestDefaultConfigSane(t *testing.T) {
	cfg := DefaultConfig()
	if cfg.APIOverhead <= 0 || cfg.MallocLatency <= 0 || cfg.ContextCreate <= 0 {
		t.Fatalf("DefaultConfig has zero overheads: %+v", cfg)
	}
}

// TestStreamTablesStaySmall: a context that creates and destroys a stream a
// thousand times — a packed context serving one application after another —
// keeps its stream tables the size of its live streams, ids still rise, and
// a destroyed id, trimmed or not, is an invalid stream.
func TestStreamTablesStaySmall(t *testing.T) {
	k := sim.NewKernel(1)
	rt := NewRuntime(k, []*gpu.Device{testDev(k)}, zcfg())
	k.Go("app", func(p *sim.Proc) {
		c := rt.NewThread(p, 1)
		ptr, _ := c.Malloc(1000)
		keep, _ := c.StreamCreate() // a live stream ahead of the churn stops the trim
		var first, last StreamID
		for i := 0; i < 1000; i++ {
			s, err := c.StreamCreate()
			if err != nil || s <= last {
				t.Fatalf("create %d = %v, %v after %v", i, s, err, last)
			}
			if i == 0 {
				first = s
			}
			last = s
			if err := c.MemcpyAsync(H2D, ptr, 10, s); err != nil {
				t.Fatalf("copy on %v: %v", s, err)
			}
			if err := c.StreamDestroy(s); err != nil {
				t.Fatalf("destroy %v: %v", s, err)
			}
			if i == 500 {
				if err := c.StreamDestroy(keep); err != nil {
					t.Fatalf("destroy %v: %v", keep, err)
				}
			}
		}
		pc := rt.ctxs[0]
		if len(pc.streams) > 4 || len(pc.lastOp) != len(pc.streams) {
			t.Errorf("after 1000 streams the tables hold %d and %d slots, want a handful", len(pc.streams), len(pc.lastOp))
		}
		for _, s := range []StreamID{keep, first, last} {
			if err := c.StreamSynchronize(s); !errors.Is(err, ErrInvalidStream) {
				t.Errorf("sync of destroyed stream %v = %v, want ErrInvalidStream", s, err)
			}
			if err := c.MemcpyAsync(H2D, ptr, 10, s); !errors.Is(err, ErrInvalidStream) {
				t.Errorf("copy on destroyed stream %v = %v, want ErrInvalidStream", s, err)
			}
		}
		if err := c.MemcpyAsync(H2D, ptr, 10, DefaultStream); err != nil {
			t.Errorf("copy on the default stream: %v", err)
		}
	})
	k.Run()
}

// TestOverlappingDeviceSyncsAllocateNothing: two threads of one packed context
// synchronize the device at once, round after round. Each thread keeps its own
// wait list, so once both have synchronized before, neither allocates.
func TestOverlappingDeviceSyncsAllocateNothing(t *testing.T) {
	k := sim.NewKernel(1)
	rt := NewRuntime(k, []*gpu.Device{testDev(k)}, zcfg())
	var a, b Thread
	rt.InitThread(&a, nil, 1)
	rt.InitThread(&b, nil, 2)
	s, err := a.StreamCreate()
	if err != nil {
		t.Fatal(err)
	}
	sync := &Op{ID: CallDeviceSync}
	round := func() {
		a.Launch(Kernel{Compute: 1000}, DefaultStream)
		b.Launch(Kernel{Compute: 1000}, s)
		a.Issue(sync)
		b.Issue(sync)
		if a.Pending() == nil || b.Pending() == nil {
			t.Fatal("a device-wide sync did not wait for the kernels")
		}
		k.Run()
		if a.Pending() != nil || b.Pending() != nil {
			t.Fatal("a device-wide sync still waits after the kernels ended")
		}
	}
	round()
	if n := testing.AllocsPerRun(50, round); n != 0 {
		t.Errorf("two overlapping device syncs allocate %v times a round, want 0", n)
	}
}
