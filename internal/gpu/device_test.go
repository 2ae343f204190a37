package gpu

import (
	"fmt"
	"testing"
	"testing/quick"

	"repro/internal/sim"
)

// testSpec is a deliberately round-numbered spec: compute 1000 units/us,
// bandwidth 100 bytes/us, copies 10 bytes/us each direction, no fixed
// latencies, 2 copy engines, 100us context switch, 1ms slice.
func testSpec() Spec {
	return Spec{
		Name:          "test",
		ComputeRate:   1000,
		MemBandwidth:  100,
		H2DBandwidth:  10,
		D2HBandwidth:  10,
		CopyEngines:   2,
		CopyLatency:   0,
		KernelLatency: 0,
		ContextSwitch: 100,
		TimeSlice:     1 * sim.Millisecond,
		MemBytes:      1 << 20,
		Weight:        1,
	}
}

func TestKernelSoloDuration(t *testing.T) {
	k := sim.NewKernel(1)
	d := NewDevice(k, testSpec(), 0)
	ctx := d.NewContext()
	s := ctx.NewStream()
	op := &Op{Kind: OpKernel, Compute: 50000, MemTraffic: 1000} // 50us compute, 10us bw
	var done sim.Time
	k.Go("app", func(p *sim.Proc) {
		ev := s.Submit(op)
		p.Wait(ev)
		done = p.Now()
	})
	k.Run()
	if done != 50 {
		t.Fatalf("compute-bound kernel finished at %v, want 50us", done)
	}
	if op.SoloTime != 50 {
		t.Fatalf("SoloTime = %v, want 50us", op.SoloTime)
	}
}

func TestMemoryBoundKernelDuration(t *testing.T) {
	k := sim.NewKernel(1)
	d := NewDevice(k, testSpec(), 0)
	s := d.NewContext().NewStream()
	op := &Op{Kind: OpKernel, Compute: 1000, MemTraffic: 10000} // 1us compute, 100us bw
	var done sim.Time
	k.Go("app", func(p *sim.Proc) {
		p.Wait(s.Submit(op))
		done = p.Now()
	})
	k.Run()
	if done != 100 {
		t.Fatalf("memory-bound kernel finished at %v, want 100us", done)
	}
}

func TestCopyDurations(t *testing.T) {
	k := sim.NewKernel(1)
	d := NewDevice(k, testSpec(), 0)
	s := d.NewContext().NewStream()
	var h2dDone, d2hDone sim.Time
	k.Go("app", func(p *sim.Proc) {
		p.Wait(s.Submit(&Op{Kind: OpH2D, Bytes: 500})) // 50us at 10 B/us
		h2dDone = p.Now()
		p.Wait(s.Submit(&Op{Kind: OpD2H, Bytes: 200})) // 20us
		d2hDone = p.Now()
	})
	k.Run()
	if h2dDone != 50 {
		t.Fatalf("H2D finished at %v, want 50us", h2dDone)
	}
	if d2hDone != 70 {
		t.Fatalf("D2H finished at %v, want 70us", d2hDone)
	}
}

func TestStreamFIFOOrdering(t *testing.T) {
	k := sim.NewKernel(1)
	d := NewDevice(k, testSpec(), 0)
	s := d.NewContext().NewStream()
	ops := []*Op{
		{Kind: OpH2D, Bytes: 100},
		{Kind: OpKernel, Compute: 10000},
		{Kind: OpD2H, Bytes: 100},
	}
	var finished []string
	d.SetOnComplete(func(o *Op) { finished = append(finished, o.Kind.String()) })
	k.Go("app", func(p *sim.Proc) {
		var last *sim.Event
		for _, op := range ops {
			last = s.Submit(op)
		}
		p.Wait(last)
	})
	k.Run()
	want := []string{"H2D", "KL", "D2H"}
	for i := range want {
		if finished[i] != want[i] {
			t.Fatalf("completion order %v, want %v", finished, want)
		}
	}
	// FIFO within the stream: each op starts only after the previous ends.
	if ops[1].Started < ops[0].Finished || ops[2].Started < ops[1].Finished {
		t.Fatalf("stream order violated: %+v", ops)
	}
}

func TestTwoComputeBoundKernelsTimeShare(t *testing.T) {
	k := sim.NewKernel(1)
	d := NewDevice(k, testSpec(), 0)
	ctx := d.NewContext()
	s1, s2 := ctx.NewStream(), ctx.NewStream()
	var t1, t2 sim.Time
	k.Go("a", func(p *sim.Proc) {
		p.Wait(s1.Submit(&Op{Kind: OpKernel, Compute: 50000, AppID: 1}))
		t1 = p.Now()
	})
	k.Go("b", func(p *sim.Proc) {
		p.Wait(s2.Submit(&Op{Kind: OpKernel, Compute: 50000, AppID: 2}))
		t2 = p.Now()
	})
	k.Run()
	// Two fully compute-bound 50us kernels share the device: both finish
	// at ~100us (uniform slowdown 2).
	if t1 < 99 || t1 > 101 || t2 < 99 || t2 > 101 {
		t.Fatalf("co-run compute-bound kernels finished at %v, %v, want ~100us", t1, t2)
	}
}

func TestComputeAndMemoryBoundKernelsOverlap(t *testing.T) {
	k := sim.NewKernel(1)
	d := NewDevice(k, testSpec(), 0)
	ctx := d.NewContext()
	s1, s2 := ctx.NewStream(), ctx.NewStream()
	var t1, t2 sim.Time
	// Kernel A: compute bound, 100us solo, demands (1.0 cpu, 0.1 bw).
	// Kernel B: memory bound, 100us solo, demands (0.1 cpu, 1.0 bw).
	// Slowdown = max(1, 1.1, 1.1) = 1.1 → both finish ≈ 110us, far better
	// than the 200us serialization — the MBF opportunity.
	k.Go("a", func(p *sim.Proc) {
		p.Wait(s1.Submit(&Op{Kind: OpKernel, Compute: 100000, MemTraffic: 1000, AppID: 1}))
		t1 = p.Now()
	})
	k.Go("b", func(p *sim.Proc) {
		p.Wait(s2.Submit(&Op{Kind: OpKernel, Compute: 10000, MemTraffic: 10000, AppID: 2}))
		t2 = p.Now()
	})
	k.Run()
	if t1 < 105 || t1 > 115 || t2 < 105 || t2 > 115 {
		t.Fatalf("contrasting kernels finished at %v, %v, want ~110us", t1, t2)
	}
}

func TestLowOccupancyKernelsSpaceShare(t *testing.T) {
	k := sim.NewKernel(1)
	d := NewDevice(k, testSpec(), 0)
	ctx := d.NewContext()
	s1, s2 := ctx.NewStream(), ctx.NewStream()
	var t1, t2 sim.Time
	// Each kernel can only occupy 20% of the device; solo duration
	// 10000/(1000*0.2) = 50us, device-level compute demand 0.2 each.
	// Together: slowdown 1 → both still finish at 50us (space sharing).
	k.Go("a", func(p *sim.Proc) {
		p.Wait(s1.Submit(&Op{Kind: OpKernel, Compute: 10000, Occupancy: 0.2, AppID: 1}))
		t1 = p.Now()
	})
	k.Go("b", func(p *sim.Proc) {
		p.Wait(s2.Submit(&Op{Kind: OpKernel, Compute: 10000, Occupancy: 0.2, AppID: 2}))
		t2 = p.Now()
	})
	k.Run()
	if t1 != 50 || t2 != 50 {
		t.Fatalf("space-shared kernels finished at %v, %v, want 50us", t1, t2)
	}
}

func TestCopyComputeOverlapWithinContext(t *testing.T) {
	k := sim.NewKernel(1)
	d := NewDevice(k, testSpec(), 0)
	ctx := d.NewContext()
	s1, s2 := ctx.NewStream(), ctx.NewStream()
	var tKernel, tCopy sim.Time
	k.Go("a", func(p *sim.Proc) {
		p.Wait(s1.Submit(&Op{Kind: OpKernel, Compute: 50000, AppID: 1}))
		tKernel = p.Now()
	})
	k.Go("b", func(p *sim.Proc) {
		p.Wait(s2.Submit(&Op{Kind: OpH2D, Bytes: 500, AppID: 2}))
		tCopy = p.Now()
	})
	k.Run()
	if tKernel != 50 || tCopy != 50 {
		t.Fatalf("kernel at %v copy at %v, want both 50us (full overlap)", tKernel, tCopy)
	}
}

func TestH2DAndD2HEnginesIndependent(t *testing.T) {
	k := sim.NewKernel(1)
	d := NewDevice(k, testSpec(), 0)
	ctx := d.NewContext()
	s1, s2 := ctx.NewStream(), ctx.NewStream()
	var t1, t2 sim.Time
	k.Go("a", func(p *sim.Proc) {
		p.Wait(s1.Submit(&Op{Kind: OpH2D, Bytes: 500}))
		t1 = p.Now()
	})
	k.Go("b", func(p *sim.Proc) {
		p.Wait(s2.Submit(&Op{Kind: OpD2H, Bytes: 500}))
		t2 = p.Now()
	})
	k.Run()
	if t1 != 50 || t2 != 50 {
		t.Fatalf("dual-engine copies at %v, %v, want 50us each", t1, t2)
	}
}

func TestSingleCopyEngineSerializes(t *testing.T) {
	spec := testSpec()
	spec.CopyEngines = 1
	k := sim.NewKernel(1)
	d := NewDevice(k, spec, 0)
	ctx := d.NewContext()
	s1, s2 := ctx.NewStream(), ctx.NewStream()
	var t1, t2 sim.Time
	k.Go("a", func(p *sim.Proc) {
		p.Wait(s1.Submit(&Op{Kind: OpH2D, Bytes: 500}))
		t1 = p.Now()
	})
	k.Go("b", func(p *sim.Proc) {
		p.Wait(s2.Submit(&Op{Kind: OpD2H, Bytes: 500}))
		t2 = p.Now()
	})
	k.Run()
	if t1 != 50 || t2 != 100 {
		t.Fatalf("single-engine copies at %v, %v, want 50us and 100us", t1, t2)
	}
}

func TestSeparateContextsSerializeWithSwitchCost(t *testing.T) {
	k := sim.NewKernel(1)
	d := NewDevice(k, testSpec(), 0)
	c1, c2 := d.NewContext(), d.NewContext()
	s1, s2 := c1.NewStream(), c2.NewStream()
	var t1, t2 sim.Time
	k.Go("a", func(p *sim.Proc) {
		p.Wait(s1.Submit(&Op{Kind: OpKernel, Compute: 50000, AppID: 1}))
		t1 = p.Now()
	})
	k.Go("b", func(p *sim.Proc) {
		p.Wait(s2.Submit(&Op{Kind: OpKernel, Compute: 50000, AppID: 2}))
		t2 = p.Now()
	})
	k.Run()
	// First kernel runs 0..50; switch 100us; second runs 150..200.
	if t1 != 50 {
		t.Fatalf("first context kernel at %v, want 50us", t1)
	}
	if t2 != 200 {
		t.Fatalf("second context kernel at %v, want 200us (switch cost included)", t2)
	}
	if d.Stats().Switches != 1 {
		t.Fatalf("switches = %d, want 1", d.Stats().Switches)
	}
}

func TestContextTimeSlicePreventsStarvation(t *testing.T) {
	spec := testSpec()
	spec.TimeSlice = 200 // tight slice
	k := sim.NewKernel(1)
	d := NewDevice(k, spec, 0)
	c1, c2 := d.NewContext(), d.NewContext()
	s1, s2 := c1.NewStream(), c2.NewStream()
	var t2 sim.Time
	// Context 1 continuously feeds 100us kernels; context 2 has one kernel.
	k.Go("hog", func(p *sim.Proc) {
		for i := 0; i < 10; i++ {
			p.Wait(s1.Submit(&Op{Kind: OpKernel, Compute: 100000, AppID: 1}))
		}
	})
	k.Go("victim", func(p *sim.Proc) {
		p.Sleep(10) // arrive while hog is resident
		p.Wait(s2.Submit(&Op{Kind: OpKernel, Compute: 10000, AppID: 2}))
		t2 = p.Now()
	})
	k.Run()
	// Without slicing the victim would wait 1000us+; with a 200us slice it
	// gets in after roughly two hog kernels plus a switch.
	if t2 > 500 {
		t.Fatalf("victim finished at %v; time slice failed to bound waiting", t2)
	}
	if d.Stats().Switches == 0 {
		t.Fatal("no context switches recorded")
	}
}

func TestSingleContextNeverSwitches(t *testing.T) {
	k := sim.NewKernel(1)
	d := NewDevice(k, testSpec(), 0)
	ctx := d.NewContext()
	s1, s2 := ctx.NewStream(), ctx.NewStream()
	k.Go("a", func(p *sim.Proc) {
		for i := 0; i < 5; i++ {
			p.Wait(s1.Submit(&Op{Kind: OpKernel, Compute: 30000, AppID: 1}))
		}
	})
	k.Go("b", func(p *sim.Proc) {
		for i := 0; i < 5; i++ {
			p.Wait(s2.Submit(&Op{Kind: OpKernel, Compute: 30000, AppID: 2}))
		}
	})
	k.Run()
	if s := d.Stats(); s.Switches != 0 {
		t.Fatalf("switches = %d for a single shared context, want 0", s.Switches)
	}
}

func TestAppServiceAccounting(t *testing.T) {
	k := sim.NewKernel(1)
	d := NewDevice(k, testSpec(), 0)
	s := d.NewContext().NewStream()
	k.Go("app", func(p *sim.Proc) {
		p.Wait(s.Submit(&Op{Kind: OpKernel, Compute: 50000, AppID: 7}))
		p.Wait(s.Submit(&Op{Kind: OpH2D, Bytes: 300, AppID: 7}))
	})
	k.Run()
	if got := d.AppService(7); got < 79 || got > 81 {
		t.Fatalf("AppService = %v, want ~80us (50 kernel + 30 copy)", got)
	}
	if got := d.AppTransferTime(7); got != 30 {
		t.Fatalf("AppTransferTime = %v, want 30us", got)
	}
	if ids := d.AppIDs(); len(ids) != 1 || ids[0] != 7 {
		t.Fatalf("AppIDs = %v", ids)
	}
}

func TestMemoryAllocGuard(t *testing.T) {
	k := sim.NewKernel(1)
	d := NewDevice(k, testSpec(), 0) // 1 MiB
	if err := d.Alloc(1 << 19); err != nil {
		t.Fatalf("first alloc failed: %v", err)
	}
	if err := d.Alloc(1 << 19); err != nil {
		t.Fatalf("second alloc failed: %v", err)
	}
	if err := d.Alloc(1); err == nil {
		t.Fatal("over-capacity alloc succeeded")
	}
	d.Free(1 << 19)
	if err := d.Alloc(1); err != nil {
		t.Fatalf("alloc after free failed: %v", err)
	}
	if d.MemUsed() != (1<<19)+1 {
		t.Fatalf("MemUsed = %d", d.MemUsed())
	}
	if err := d.Alloc(-5); err == nil {
		t.Fatal("negative alloc succeeded")
	}
}

func TestFreeTooMuchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic on over-free")
		}
	}()
	k := sim.NewKernel(1)
	d := NewDevice(k, testSpec(), 0)
	d.Free(1)
}

func TestUtilizationAccounting(t *testing.T) {
	k := sim.NewKernel(1)
	d := NewDevice(k, testSpec(), 0)
	s := d.NewContext().NewStream()
	k.Go("app", func(p *sim.Proc) {
		p.Wait(s.Submit(&Op{Kind: OpKernel, Compute: 100000, AppID: 1})) // 100us full compute
	})
	k.Run()
	st := d.Stats()
	if st.ComputeBusy < 99 || st.ComputeBusy > 101 {
		t.Fatalf("ComputeBusy = %v, want ~100us", st.ComputeBusy)
	}
	if st.KernelsDone != 1 {
		t.Fatalf("KernelsDone = %d", st.KernelsDone)
	}
}

func TestTracerSegments(t *testing.T) {
	k := sim.NewKernel(1)
	d := NewDevice(k, testSpec(), 0)
	tr := &UtilTrace{}
	d.SetTracer(tr)
	s := d.NewContext().NewStream()
	k.Go("app", func(p *sim.Proc) {
		p.Wait(s.Submit(&Op{Kind: OpKernel, Compute: 50000, AppID: 1}))
		p.Sleep(50)
		p.Wait(s.Submit(&Op{Kind: OpKernel, Compute: 50000, AppID: 1}))
	})
	k.Run()
	if cu, _ := tr.MeanUtil(50); cu < 0.99 {
		t.Fatalf("utilization over the first 50us = %v, want ~1", cu)
	}
	mc, _ := tr.MeanUtil(150)
	if mc < 0.6 || mc > 0.72 {
		t.Fatalf("mean compute util = %v, want ~2/3", mc)
	}
	if g := tr.BusyGlitchCount(); g != 1 {
		t.Fatalf("glitches = %d, want 1 (the idle gap)", g)
	}
}

func TestDeviceClose(t *testing.T) {
	k := sim.NewKernel(1)
	d := NewDevice(k, testSpec(), 0)
	k.Go("closer", func(p *sim.Proc) {
		p.Sleep(10)
		d.Close()
	})
	k.Run()
	if n := k.ProcCount(); n != 0 {
		t.Fatalf("%d processes alive after Close, want 0", n)
	}
}

func TestOpKindString(t *testing.T) {
	if OpH2D.String() != "H2D" || OpD2H.String() != "D2H" || OpKernel.String() != "KL" {
		t.Fatal("OpKind mnemonics wrong")
	}
	if OpKind(9).String() != "OpKind(9)" {
		t.Fatal("unknown OpKind formatting wrong")
	}
}

// Property: work conservation — for any batch of kernels on one context, the
// device's total compute-busy integral equals the sum of the kernels' solo
// compute demands (nothing lost, nothing double-counted), and the makespan is
// at least the max solo duration and at most the sum.
func TestQuickKernelWorkConservation(t *testing.T) {
	f := func(raw []uint16) bool {
		if len(raw) == 0 || len(raw) > 12 {
			return true
		}
		k := sim.NewKernel(2)
		d := NewDevice(k, testSpec(), 0)
		ctx := d.NewContext()
		var totalSolo float64
		var maxSolo, sumSolo sim.Time
		for i, r := range raw {
			c := float64(r%5000+1000) * 10 // compute units
			op := &Op{Kind: OpKernel, Compute: c, AppID: i}
			st := ctx.NewStream()
			solo := sim.Time(c / 1000)
			if solo > maxSolo {
				maxSolo = solo
			}
			sumSolo += solo
			totalSolo += c / 1000
			k.Go(fmt.Sprintf("a%d", i), func(p *sim.Proc) {
				p.Wait(st.Submit(op))
			})
		}
		k.Run()
		makespan := k.Now()
		if makespan < maxSolo-1 || makespan > sumSolo+sim.Time(len(raw)) {
			return false
		}
		busy := float64(d.Stats().ComputeBusy)
		diff := busy - totalSolo
		if diff < 0 {
			diff = -diff
		}
		return diff <= float64(len(raw))+1 // rounding slack
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// Property: stream FIFO — ops submitted on one stream always start in order
// and never overlap, for arbitrary op mixes.
func TestQuickStreamFIFO(t *testing.T) {
	f := func(kinds []uint8) bool {
		if len(kinds) == 0 || len(kinds) > 20 {
			return true
		}
		k := sim.NewKernel(3)
		d := NewDevice(k, testSpec(), 0)
		s := d.NewContext().NewStream()
		ops := make([]*Op, len(kinds))
		for i, kind := range kinds {
			switch kind % 3 {
			case 0:
				ops[i] = &Op{Kind: OpH2D, Bytes: int64(kind)*7 + 10}
			case 1:
				ops[i] = &Op{Kind: OpD2H, Bytes: int64(kind)*5 + 10}
			default:
				ops[i] = &Op{Kind: OpKernel, Compute: float64(kind)*100 + 1000}
			}
		}
		k.Go("app", func(p *sim.Proc) {
			var last *sim.Event
			for _, op := range ops {
				last = s.Submit(op)
			}
			p.Wait(last)
		})
		k.Run()
		for i := 1; i < len(ops); i++ {
			if ops[i].Started < ops[i-1].Finished {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// Property: contexts are exclusive — with ops spread over two contexts, no
// two ops from different contexts ever execute concurrently.
func TestQuickContextExclusion(t *testing.T) {
	f := func(raw []uint8) bool {
		if len(raw) < 2 || len(raw) > 16 {
			return true
		}
		k := sim.NewKernel(4)
		d := NewDevice(k, testSpec(), 0)
		c1, c2 := d.NewContext(), d.NewContext()
		var ops1, ops2 []*Op
		for i, r := range raw {
			op := &Op{Kind: OpKernel, Compute: float64(r)*50 + 500, AppID: i}
			if i%2 == 0 {
				st := c1.NewStream()
				ops1 = append(ops1, op)
				k.Go(fmt.Sprintf("a%d", i), func(p *sim.Proc) { p.Wait(st.Submit(op)) })
			} else {
				st := c2.NewStream()
				ops2 = append(ops2, op)
				k.Go(fmt.Sprintf("b%d", i), func(p *sim.Proc) { p.Wait(st.Submit(op)) })
			}
		}
		k.Run()
		for _, a := range ops1 {
			for _, b := range ops2 {
				if a.Started < b.Finished && b.Started < a.Finished {
					return false // overlap across contexts
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}
