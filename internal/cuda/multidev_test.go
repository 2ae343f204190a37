package cuda

import (
	"errors"
	"testing"

	"repro/internal/gpu"
	"repro/internal/sim"
)

func twoDevs(k *sim.Kernel) []*gpu.Device {
	spec := gpu.Spec{
		Name: "t", ComputeRate: 1000, MemBandwidth: 100,
		H2DBandwidth: 10, D2HBandwidth: 10, CopyEngines: 2,
		ContextSwitch: 100, TimeSlice: sim.Millisecond, MemBytes: 1 << 20, Weight: 1,
	}
	return []*gpu.Device{gpu.NewDevice(k, spec, 0), gpu.NewDevice(k, spec, 1)}
}

func TestThreadSwitchesDevices(t *testing.T) {
	k := sim.NewKernel(1)
	devs := twoDevs(k)
	rt := NewRuntime(k, devs, Config{})
	k.Go("app", func(p *sim.Proc) {
		c := rt.NewThread(p, 1)
		c.SetDevice(0)
		c.Launch(Kernel{Compute: 10000}, DefaultStream)
		c.DeviceSynchronize()
		c.SetDevice(1)
		c.Launch(Kernel{Compute: 20000}, DefaultStream)
		c.DeviceSynchronize()
	})
	k.Run()
	if devs[0].Stats().KernelsDone != 1 || devs[1].Stats().KernelsDone != 1 {
		t.Fatalf("kernels = %d, %d; want 1 each",
			devs[0].Stats().KernelsDone, devs[1].Stats().KernelsDone)
	}
	// One process context per device.
	if rt.ctxs[0] == nil || rt.ctxs[1] == nil {
		t.Fatal("contexts missing")
	}
	if rt.ctxs[0].ctx == rt.ctxs[1].ctx {
		t.Fatal("devices share one context object")
	}
}

func TestPerDeviceStreamNamespaces(t *testing.T) {
	k := sim.NewKernel(1)
	devs := twoDevs(k)
	rt := NewRuntime(k, devs, Config{})
	k.Go("app", func(p *sim.Proc) {
		c := rt.NewThread(p, 1)
		c.SetDevice(0)
		s0, _ := c.StreamCreate()
		c.SetDevice(1)
		// Stream ids are per-context: the dev-0 stream is not valid here.
		if err := c.StreamSynchronize(s0); !errors.Is(err, ErrInvalidStream) {
			t.Errorf("cross-device stream sync = %v, want ErrInvalidStream", err)
		}
		s1, err := c.StreamCreate()
		if err != nil {
			t.Errorf("StreamCreate on dev 1: %v", err)
		}
		if err := c.Launch(Kernel{Compute: 1000}, s1); err != nil {
			t.Errorf("Launch: %v", err)
		}
		c.DeviceSynchronize()
	})
	k.Run()
}

func TestDeviceSyncScopedToCurrentDevice(t *testing.T) {
	k := sim.NewKernel(1)
	devs := twoDevs(k)
	rt := NewRuntime(k, devs, Config{})
	var synced sim.Time
	k.Go("app", func(p *sim.Proc) {
		c := rt.NewThread(p, 1)
		c.SetDevice(0)
		c.Launch(Kernel{Compute: 100000}, DefaultStream) // 100us on dev 0
		c.SetDevice(1)
		c.Launch(Kernel{Compute: 10000}, DefaultStream) // 10us on dev 1
		// Synchronizing device 1 must not wait for device 0's kernel.
		c.DeviceSynchronize()
		synced = p.Now()
	})
	k.Run()
	if synced >= 100 {
		t.Fatalf("device-1 sync waited %v; leaked into device 0", synced)
	}
}

func TestAllocationsTrackedPerDevice(t *testing.T) {
	k := sim.NewKernel(1)
	devs := twoDevs(k)
	rt := NewRuntime(k, devs, Config{})
	k.Go("app", func(p *sim.Proc) {
		c := rt.NewThread(p, 1)
		c.SetDevice(0)
		p0, _ := c.Malloc(100)
		c.SetDevice(1)
		p1, _ := c.Malloc(200)
		if devs[0].MemUsed() != 100 || devs[1].MemUsed() != 200 {
			t.Errorf("mem = %d, %d", devs[0].MemUsed(), devs[1].MemUsed())
		}
		c.Free(p0)
		c.Free(p1)
		if devs[0].MemUsed() != 0 || devs[1].MemUsed() != 0 {
			t.Errorf("after free: %d, %d", devs[0].MemUsed(), devs[1].MemUsed())
		}
	})
	k.Run()
}

func TestMallocBlockOnOOM(t *testing.T) {
	k := sim.NewKernel(1)
	devs := twoDevs(k)[:1]
	rt := NewRuntime(k, devs, Config{BlockOnOOM: true})
	var grantedAt sim.Time
	k.Go("holder", func(p *sim.Proc) {
		c := rt.NewThread(p, 1)
		ptr, err := c.Malloc(1 << 20) // fills the device
		if err != nil {
			t.Errorf("holder malloc: %v", err)
			return
		}
		p.Sleep(200)
		c.Free(ptr)
	})
	k.Go("waiter", func(p *sim.Proc) {
		p.Sleep(1)
		c := rt.NewThread(p, 2)
		if _, err := c.Malloc(1 << 19); err != nil {
			t.Errorf("blocking malloc: %v", err)
			return
		}
		grantedAt = p.Now()
	})
	k.Run()
	if grantedAt < 200 {
		t.Fatalf("guarded malloc granted at %v, want ≥200us (after the free)", grantedAt)
	}
	// Unsatisfiable requests still fail fast.
	k2 := sim.NewKernel(1)
	rt2 := NewRuntime(k2, twoDevs(k2)[:1], Config{BlockOnOOM: true})
	k2.Go("big", func(p *sim.Proc) {
		c := rt2.NewThread(p, 1)
		if _, err := c.Malloc(1 << 30); !errors.Is(err, ErrMemoryAllocation) {
			t.Errorf("oversized guarded malloc = %v", err)
		}
	})
	k2.Run()
}
