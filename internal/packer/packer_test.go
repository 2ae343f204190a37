package packer

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	"repro/internal/cuda"
	"repro/internal/gpu"
	"repro/internal/rpcproto"
	"repro/internal/sim"
	"repro/internal/trace"
)

func testDev(k *sim.Kernel) *gpu.Device {
	spec := gpu.Spec{
		Name: "t", ComputeRate: 1000, MemBandwidth: 100,
		H2DBandwidth: 10, D2HBandwidth: 10, CopyEngines: 2,
		ContextSwitch: 100, TimeSlice: sim.Millisecond, MemBytes: 1 << 20, Weight: 1,
	}
	return gpu.NewDevice(k, spec, 0)
}

func newPacker(k *sim.Kernel) (*Packer, *gpu.Device) {
	dev := testDev(k)
	rt := cuda.NewRuntime(k, []*gpu.Device{dev}, cuda.Config{})
	return New(rt, Config{}), dev
}

func mallocVia(port *Port, bytes int64) (cuda.Ptr, *rpcproto.Reply) {
	r := port.Execute(&rpcproto.Call{ID: cuda.CallMalloc, Bytes: bytes})
	return cuda.Ptr{Dev: int(r.PtrDev), ID: r.PtrID, Size: r.PtrSize}, r
}

func TestOpenCreatesDedicatedStream(t *testing.T) {
	k := sim.NewKernel(1)
	pk, _ := newPacker(k)
	k.Go("bt", func(p *sim.Proc) {
		port, err := pk.Open(p, 1, 10)
		if err != nil {
			t.Errorf("Open: %v", err)
			return
		}
		if port.stream == cuda.DefaultStream {
			t.Error("port stream is the default stream")
		}
		port2, err := pk.Open(p, 2, 11)
		if err != nil {
			t.Errorf("second Open: %v", err)
			return
		}
		if port2.stream == port.stream {
			t.Error("two apps share one stream")
		}
	})
	k.Run()
}

// A lane whose cudaThreadExit has completed is the next Open's — port and
// thread, its stream under a new id — with nothing of the application before:
// no allocation, pinned row or call count, and pointers numbered afresh. A
// lane still open is never handed out.
func TestClosedLaneIsReused(t *testing.T) {
	k := sim.NewKernel(1)
	pk, dev := newPacker(k)
	k.Go("bt", func(p *sim.Proc) {
		first, _ := pk.Open(p, 1, 10)
		other, _ := pk.Open(p, 2, 11)
		ptr, _ := mallocVia(first, 1000)
		first.Execute(&rpcproto.Call{ID: cuda.CallMemcpy, Dir: cuda.H2D, PtrID: ptr.ID, PtrSize: ptr.Size, Bytes: 400})
		if r := first.Execute(&rpcproto.Call{ID: cuda.CallThreadExit}); r.Err != "" {
			t.Errorf("exit: %s", r.Err)
		}
		next, err := pk.Open(p, 3, 12)
		if err != nil || next != first || other == first {
			t.Fatalf("Open after an exit = %p, %v; want the closed lane %p (the open one is %p)", next, err, first, other)
		}
		if next.stream <= other.stream || next.AppID != 3 || next.Tenant != 12 || next.closed ||
			len(next.pinned) != 0 || next.thread.Calls() != 2 || dev.MemUsed() != 0 {
			t.Errorf("reused lane: stream %d (last %d), app %d tenant %d closed %v, %d pinned rows, %d calls, %d bytes in use",
				next.stream, other.stream, next.AppID, next.Tenant, next.closed, len(next.pinned), next.thread.Calls(), dev.MemUsed())
		}
		if got, _ := mallocVia(next, 10); got.ID != 3<<32|1 {
			t.Errorf("first pointer of the reused lane = %#x, want %#x", got.ID, int64(3<<32|1))
		}
	})
	k.Run()
}

func TestSyncH2DBecomesAsync(t *testing.T) {
	k := sim.NewKernel(1)
	pk, _ := newPacker(k)
	var queuedAt, syncedAt sim.Time
	k.Go("bt", func(p *sim.Proc) {
		port, _ := pk.Open(p, 1, 10)
		ptr, _ := mallocVia(port, 1000)
		r := port.Execute(&rpcproto.Call{
			ID: cuda.CallMemcpy, Dir: cuda.H2D,
			PtrID: ptr.ID, PtrSize: ptr.Size, PtrDev: int32(ptr.Dev), Bytes: 500,
		})
		if r.Err != "" {
			t.Errorf("memcpy: %s", r.Err)
		}
		queuedAt = p.Now()
		if pk.pmt.Len() != 1 {
			t.Errorf("PMT entries = %d after async H2D, want 1", pk.pmt.Len())
		}
		r = port.Execute(&rpcproto.Call{ID: cuda.CallDeviceSync})
		if r.Err != "" {
			t.Errorf("device sync: %s", r.Err)
		}
		syncedAt = p.Now()
		if pk.pmt.Len() != 0 {
			t.Errorf("PMT entries = %d after sync, want 0", pk.pmt.Len())
		}
	})
	k.Run()
	// The copy takes 50us at 10 B/us; the H2D call must return well before
	// that, and the sync must cover the rest.
	if queuedAt >= 50 {
		t.Fatalf("sync H2D blocked until %v; MOT failed to asyncify", queuedAt)
	}
	if syncedAt < 50 {
		t.Fatalf("device sync returned at %v, before the copy could finish", syncedAt)
	}
}

func TestSyncD2HReturnsAfterData(t *testing.T) {
	k := sim.NewKernel(1)
	pk, _ := newPacker(k)
	var done sim.Time
	k.Go("bt", func(p *sim.Proc) {
		port, _ := pk.Open(p, 1, 10)
		ptr, _ := mallocVia(port, 1000)
		port.Execute(&rpcproto.Call{ID: cuda.CallLaunch, Compute: 20000}) // 20us
		r := port.Execute(&rpcproto.Call{
			ID: cuda.CallMemcpy, Dir: cuda.D2H,
			PtrID: ptr.ID, PtrSize: ptr.Size, Bytes: 300, // 30us
		})
		if r.Err != "" {
			t.Errorf("d2h: %s", r.Err)
		}
		done = p.Now()
	})
	k.Run()
	if done != 50 {
		t.Fatalf("sync D2H returned at %v, want 50us (kernel then copy)", done)
	}
}

func TestSSTDeviceSyncDoesNotBlockOtherApps(t *testing.T) {
	k := sim.NewKernel(1)
	pk, _ := newPacker(k)
	var app2Done sim.Time
	k.Go("bt1", func(p *sim.Proc) {
		port, _ := pk.Open(p, 1, 10)
		port.Execute(&rpcproto.Call{ID: cuda.CallLaunch, Compute: 100000, Occupancy: 0.4}) // long
		port.Execute(&rpcproto.Call{ID: cuda.CallDeviceSync})
	})
	k.Go("bt2", func(p *sim.Proc) {
		p.Sleep(1)
		port, _ := pk.Open(p, 2, 11)
		port.Execute(&rpcproto.Call{ID: cuda.CallLaunch, Compute: 10000, Occupancy: 0.4})
		port.Execute(&rpcproto.Call{ID: cuda.CallDeviceSync})
		app2Done = p.Now()
	})
	k.Run()
	// App 2's 25us kernel (occ 0.4) overlaps app 1's 250us kernel; its
	// "device" sync is stream-scoped so it returns at ~26us, not ~250us.
	if app2Done > 100 {
		t.Fatalf("app2 sync at %v; SST failed to scope the sync", app2Done)
	}
}

func TestASTDefaultStreamTranslation(t *testing.T) {
	k := sim.NewKernel(1)
	pk, _ := newPacker(k)
	k.Go("bt", func(p *sim.Proc) {
		port, _ := pk.Open(p, 1, 10)
		if got := port.translateStream(cuda.DefaultStream); got != port.stream {
			t.Errorf("default stream translated to %v, want %v", got, port.stream)
		}
		if got := port.translateStream(7); got != 7 {
			t.Errorf("explicit stream translated to %v, want 7", got)
		}
	})
	k.Run()
}

func TestThreadExitFreesEverything(t *testing.T) {
	k := sim.NewKernel(1)
	pk, dev := newPacker(k)
	k.Go("bt", func(p *sim.Proc) {
		port, _ := pk.Open(p, 1, 10)
		ptr, _ := mallocVia(port, 1000)
		port.Execute(&rpcproto.Call{
			ID: cuda.CallMemcpy, Dir: cuda.H2D,
			PtrID: ptr.ID, PtrSize: ptr.Size, Bytes: 400,
		})
		r := port.Execute(&rpcproto.Call{ID: cuda.CallThreadExit})
		if r.Err != "" {
			t.Errorf("exit: %s", r.Err)
		}
		if dev.MemUsed() != 0 {
			t.Errorf("device memory leaked: %d", dev.MemUsed())
		}
		if pk.pmt.Len() != 0 {
			t.Errorf("PMT leaked %d entries", pk.pmt.Len())
		}
		r = port.Execute(&rpcproto.Call{ID: cuda.CallLaunch, Compute: 1})
		if errors.Is(r.AsError(), cuda.ErrThreadExited) == false {
			t.Errorf("call after exit = %v", r.AsError())
		}
	})
	k.Run()
}

func TestPinCostCharged(t *testing.T) {
	k := sim.NewKernel(1)
	dev := testDev(k)
	rt := cuda.NewRuntime(k, []*gpu.Device{dev}, cuda.Config{})
	pk := New(rt, Config{PinBandwidth: 10}) // 10 B/us staging
	var elapsed sim.Time
	k.Go("bt", func(p *sim.Proc) {
		port, _ := pk.Open(p, 1, 10)
		ptr, _ := mallocVia(port, 1000)
		t0 := p.Now()
		port.Execute(&rpcproto.Call{
			ID: cuda.CallMemcpy, Dir: cuda.H2D,
			PtrID: ptr.ID, PtrSize: ptr.Size, Bytes: 500,
		})
		elapsed = p.Now() - t0
		port.Execute(&rpcproto.Call{ID: cuda.CallDeviceSync})
	})
	k.Run()
	if elapsed != 50 {
		t.Fatalf("pin staging cost %v, want 50us", elapsed)
	}
}

func TestUnknownCallRejected(t *testing.T) {
	k := sim.NewKernel(1)
	pk, _ := newPacker(k)
	k.Go("bt", func(p *sim.Proc) {
		port, _ := pk.Open(p, 1, 10)
		r := port.Execute(&rpcproto.Call{ID: cuda.CallID(99)})
		if !errors.Is(r.AsError(), cuda.ErrNotImplemented) {
			t.Errorf("unknown call = %v", r.AsError())
		}
	})
	k.Run()
}

func TestStreamCreateAndExplicitUse(t *testing.T) {
	k := sim.NewKernel(1)
	pk, _ := newPacker(k)
	k.Go("bt", func(p *sim.Proc) {
		port, _ := pk.Open(p, 1, 10)
		r := port.Execute(&rpcproto.Call{ID: cuda.CallStreamCreate})
		if r.Err != "" || r.Stream == 0 {
			t.Errorf("stream create = %+v", r)
		}
		r = port.Execute(&rpcproto.Call{ID: cuda.CallLaunch, Compute: 5000, Stream: r.Stream})
		if r.Err != "" {
			t.Errorf("launch on explicit stream: %s", r.Err)
		}
		r = port.Execute(&rpcproto.Call{ID: cuda.CallStreamDestroy, Stream: 0})
		if !errors.Is(r.AsError(), cuda.ErrInvalidValue) {
			t.Errorf("destroying stream 0 = %v", r.AsError())
		}
	})
	k.Run()
}

// TestTranslationTable pins what the packer does before the shared executor
// runs: which opcodes it rewrites, where default-stream work lands, what a
// synchronize releases, and that every other opcode is exactly one verbatim
// runtime call on an untouched frame. (cudaThreadExit, the remaining
// translation, is TestThreadExitFreesEverything.)
func TestTranslationTable(t *testing.T) {
	k := sim.NewKernel(1)
	pk, _ := newPacker(k)
	k.Go("bt", func(p *sim.Proc) {
		port, _ := pk.Open(p, 1, 10)
		th := &port.thread
		own := int32(port.stream)
		ptr, _ := mallocVia(port, 1000)
		explicit := port.Execute(&rpcproto.Call{ID: cuda.CallStreamCreate}).Stream
		ev := port.Execute(&rpcproto.Call{ID: cuda.CallEventCreate}).Event
		if explicit == own || explicit == 0 {
			t.Fatalf("explicit stream %d, dedicated stream %d", explicit, own)
		}
		// drained synchronizes a stream behind the packer's back and reports
		// how long its queued work took to finish.
		drained := func(s int32) sim.Time {
			t0 := p.Now()
			th.StreamSynchronize(cuda.StreamID(s))
			return p.Now() - t0
		}
		on := func(c rpcproto.Call) *rpcproto.Call {
			c.PtrID, c.PtrSize, c.PtrDev = ptr.ID, ptr.Size, int32(ptr.Dev)
			return &c
		}
		launch := rpcproto.Call{ID: cuda.CallLaunch, Compute: 20000} // 20us
		copyIn := rpcproto.Call{ID: cuda.CallMemcpyAsync, Dir: cuda.H2D, Bytes: 300}

		rows := []struct {
			name       string
			call       *rpcproto.Call
			wantStream int32  // the frame's stream field afterwards
			wantErr    error  // the reply's error
			wantCalls  int    // runtime calls the opcode turned into
			check      func() // landing / side effects, run after the call
		}{
			{"SetDevice names a GID, binds ordinal 0", &rpcproto.Call{ID: cuda.CallSetDevice, Dev: 3}, 0, nil, 1, nil},
			{"Launch default→dedicated", on(launch), own, nil, 1, func() {
				if d0, d := drained(0), drained(own); d0 != 0 || d != 20 {
					t.Errorf("default-stream launch: stream 0 busy %v, dedicated busy %v; want 0, 20us", d0, d)
				}
			}},
			{"Launch explicit passes through", on(rpcproto.Call{ID: cuda.CallLaunch, Compute: 20000, Stream: explicit}), explicit, nil, 1, func() {
				if d, de := drained(own), drained(explicit); d != 0 || de != 20 {
					t.Errorf("explicit-stream launch: dedicated busy %v, explicit busy %v; want 0, 20us", d, de)
				}
			}},
			{"MemcpyAsync default→dedicated, pinned", on(copyIn), own, nil, 1, func() {
				if d0, d := drained(0), drained(own); d0 != 0 || d != 30 {
					t.Errorf("default-stream copy: stream 0 busy %v, dedicated busy %v; want 0, 30us", d0, d)
				}
				if n := pk.pmt.Len(); n != 1 {
					t.Errorf("PMT entries = %d after an async H2D, want 1", n)
				}
			}},
			{"MemcpyAsync explicit passes through, pinned", on(rpcproto.Call{ID: cuda.CallMemcpyAsync, Dir: cuda.H2D, Bytes: 300, Stream: explicit}), explicit, nil, 1, func() {
				if d, de := drained(own), drained(explicit); d != 0 || de != 30 {
					t.Errorf("explicit-stream copy: dedicated busy %v, explicit busy %v; want 0, 30us", d, de)
				}
				if n := pk.pmt.Len(); n != 2 {
					t.Errorf("PMT entries = %d, want 2", n)
				}
			}},
			{"StreamSync default→dedicated releases that stream's pins", &rpcproto.Call{ID: cuda.CallStreamSync}, own, nil, 1, func() {
				if n := pk.pmt.Len(); n != 1 {
					t.Errorf("PMT entries = %d after syncing the dedicated stream, want the explicit stream's 1", n)
				}
			}},
			{"StreamSync of an unknown stream releases nothing", &rpcproto.Call{ID: cuda.CallStreamSync, Stream: 42}, 42, cuda.ErrInvalidStream, 1, func() {
				if n := pk.pmt.Len(); n != 1 {
					t.Errorf("PMT entries = %d after a failed sync, want 1", n)
				}
			}},
			{"EventRecord default→dedicated", &rpcproto.Call{ID: cuda.CallEventRecord, Event: ev}, own, nil, 1, nil},
			{"Launch on explicit, left running", on(rpcproto.Call{ID: cuda.CallLaunch, Compute: 20000, Stream: explicit}), explicit, nil, 1, nil},
			{"DeviceSync→StreamSync(dedicated)+ReleaseApp", &rpcproto.Call{ID: cuda.CallDeviceSync}, 0, nil, 1, func() {
				if n := pk.pmt.Len(); n != 0 {
					t.Errorf("PMT entries = %d after a device sync, want 0", n)
				}
				if de := drained(explicit); de == 0 {
					t.Error("device sync waited for the explicit stream: it must be scoped to the dedicated one")
				}
			}},
			{"StreamDestroy of the default stream rejected unexecuted", &rpcproto.Call{ID: cuda.CallStreamDestroy}, 0, cuda.ErrInvalidValue, 0, nil},
			{"Memcpy H2D is one async copy", on(rpcproto.Call{ID: cuda.CallMemcpy, Dir: cuda.H2D, Bytes: 300}), 0, nil, 1, nil},
			{"Memcpy D2H is an async copy and a stream sync", on(rpcproto.Call{ID: cuda.CallMemcpy, Dir: cuda.D2H, Bytes: 300}), 0, nil, 2, nil},
			// Verbatim opcodes.
			{"DeviceCount", &rpcproto.Call{ID: cuda.CallDeviceCount}, 0, nil, 1, nil},
			{"Malloc", &rpcproto.Call{ID: cuda.CallMalloc, Bytes: 10}, 0, nil, 1, nil},
			{"EventCreate", &rpcproto.Call{ID: cuda.CallEventCreate}, 0, nil, 1, nil},
			{"EventSync", &rpcproto.Call{ID: cuda.CallEventSync, Event: ev}, 0, nil, 1, nil},
			{"EventElapsed", &rpcproto.Call{ID: cuda.CallEventElapsed, Event: ev, Event2: ev}, 0, nil, 1, nil},
			{"EventDestroy", &rpcproto.Call{ID: cuda.CallEventDestroy, Event: ev}, 0, nil, 1, nil},
			{"StreamCreate", &rpcproto.Call{ID: cuda.CallStreamCreate}, 0, nil, 1, nil},
			{"StreamDestroy explicit", &rpcproto.Call{ID: cuda.CallStreamDestroy, Stream: explicit}, explicit, nil, 1, nil},
			{"Free", on(rpcproto.Call{ID: cuda.CallFree}), 0, nil, 1, nil},
		}
		for _, row := range rows {
			before := th.Calls()
			r := port.Execute(row.call)
			if got := th.Calls() - before; got != row.wantCalls {
				t.Errorf("%s: %d runtime calls, want %d", row.name, got, row.wantCalls)
			}
			if !errors.Is(r.AsError(), row.wantErr) || (row.wantErr == nil && r.Err != "") {
				t.Errorf("%s: reply error %q, want %v", row.name, r.Err, row.wantErr)
			}
			if row.call.Stream != row.wantStream {
				t.Errorf("%s: frame stream %d afterwards, want %d", row.name, row.call.Stream, row.wantStream)
			}
			if row.check != nil {
				row.check()
			}
		}
	})
	k.Run()
}

// TestRetransmittedFrameTranslatesTwice: recovery retains frames, so one
// default-stream Launch frame can reach the port twice. The in-place rewrite
// must land it on the dedicated stream both times.
func TestRetransmittedFrameTranslatesTwice(t *testing.T) {
	k := sim.NewKernel(1)
	pk, _ := newPacker(k)
	k.Go("bt", func(p *sim.Proc) {
		port, _ := pk.Open(p, 1, 10)
		frame := &rpcproto.Call{ID: cuda.CallLaunch, Seq: 7, Compute: 20000} // 20us, default stream
		for i := 0; i < 2; i++ {
			if r := port.Execute(frame); r.Err != "" || r.Seq != 7 {
				t.Errorf("delivery %d: %+v", i+1, r)
			}
		}
		t0 := p.Now()
		port.thread.StreamSynchronize(cuda.DefaultStream)
		if p.Now() != t0 {
			t.Errorf("a delivery landed on the context's real default stream (busy %v)", p.Now()-t0)
		}
		port.thread.StreamSynchronize(port.stream)
		if got := p.Now() - t0; got != 40 {
			t.Errorf("dedicated stream busy %v after two deliveries, want 40us", got)
		}
	})
	k.Run()
}

// TestExecSpanAndPooledReplies: with a recorder installed every Execute is
// one backend exec span covering the call's virtual duration, and with a pool
// installed the replies come from it.
func TestExecSpanAndPooledReplies(t *testing.T) {
	k := sim.NewKernel(1)
	dev := testDev(k)
	pk := New(cuda.NewRuntime(k, []*gpu.Device{dev}, cuda.Config{}), DefaultConfig())
	rec := trace.New()
	pk.SetRecorder(rec, 3)
	pool := &rpcproto.Pool{}
	k.Go("bt", func(p *sim.Proc) {
		port, _ := pk.Open(p, 1, 10)
		port.SetPool(pool)
		spare := &rpcproto.Reply{}
		pool.FreeReply(spare)
		if r := port.Execute(&rpcproto.Call{ID: cuda.CallLaunch, Seq: 5, Compute: 20000}); r != spare || r.Seq != 5 {
			t.Errorf("reply %p %+v, want the pooled frame %p with seq 5", r, r, spare)
		}
		port.Execute(&rpcproto.Call{ID: cuda.CallDeviceSync, Seq: 6})
	})
	k.Run()
	spans := rec.Snapshot().Spans
	if len(spans) != 2 {
		t.Fatalf("%d spans, want one per Execute", len(spans))
	}
	sync := spans[1]
	if sync.Kind != trace.KExec || sync.Name != cuda.CallDeviceSync.String() || sync.App != 1 ||
		sync.GID != 3 || sync.Arg != 6 || sync.Duration() != 20 {
		t.Fatalf("device-sync span = %+v, want a 20us exec span for app 1 on gid 3", sync)
	}
}

// TestMOTErrorPaths: a synchronous copy that overruns its allocation fails in
// both directions, and the failed H2D leaves no pinned buffer behind.
func TestMOTErrorPaths(t *testing.T) {
	k := sim.NewKernel(1)
	pk, _ := newPacker(k)
	k.Go("bt", func(p *sim.Proc) {
		port, _ := pk.Open(p, 1, 10)
		ptr, _ := mallocVia(port, 1000)
		for _, dir := range []cuda.Dir{cuda.H2D, cuda.D2H} {
			r := port.Execute(&rpcproto.Call{
				ID: cuda.CallMemcpy, Dir: dir, PtrID: ptr.ID, PtrSize: ptr.Size, Bytes: 2000,
			})
			if !errors.Is(r.AsError(), cuda.ErrInvalidValue) {
				t.Errorf("%v copy past the allocation = %v, want ErrInvalidValue", dir, r.AsError())
			}
		}
		if n := pk.pmt.Len(); n != 0 {
			t.Errorf("PMT entries = %d after failed copies, want 0", n)
		}
		if err := port.Execute(&rpcproto.Call{ID: cuda.CallThreadExit}).AsError(); err != nil {
			t.Errorf("close: %v", err)
		}
		if err := port.Execute(&rpcproto.Call{ID: cuda.CallThreadExit}).AsError(); !errors.Is(err, cuda.ErrThreadExited) {
			t.Errorf("second close = %v, want ErrThreadExited", err)
		}
	})
	k.Run()
}

// packerScript runs, on pk, a few applications that each open a lane, copy
// in through the MOT, launch, synchronize and exit, and runs k to horizon (0:
// to quiescence). It returns when each call returned and how, and the PMT.
func packerScript(k *sim.Kernel, pk *Packer, horizon sim.Time) string {
	var log []string
	for app := 1; app <= 3; app++ {
		k.Go("bt", func(p *sim.Proc) {
			port, err := pk.Open(p, app, int64(10+app))
			if err != nil {
				log = append(log, err.Error())
				return
			}
			ptr, r := mallocVia(port, int64(app)<<12)
			for _, call := range []*rpcproto.Call{
				{ID: cuda.CallMemcpy, Dir: cuda.H2D, PtrID: ptr.ID, PtrSize: ptr.Size, Bytes: 2000},
				{ID: cuda.CallLaunch, Compute: float64(app) * 1e5, Occupancy: 0.5},
				{ID: cuda.CallStreamSync},
				{ID: cuda.CallThreadExit},
			} {
				log = append(log, fmt.Sprintf("app %d %v %q at %d", app, call.ID, r.Err, p.Now()))
				r = port.Execute(call)
			}
		})
	}
	if horizon > 0 {
		k.RunUntil(horizon)
	} else {
		k.Run()
	}
	return fmt.Sprintf("%s\n%+v", strings.Join(log, "\n"), pk.pmt)
}

// TestReusedPackerRunsAsNew: a packer re-initialised after a run cut off
// mid-call, over its re-initialised device on the reset kernel, serves the
// next applications as a new packer does, PMT and all.
func TestReusedPackerRunsAsNew(t *testing.T) {
	k := sim.NewKernel(1)
	dev := testDev(k)
	want := packerScript(k, New(cuda.NewRuntime(k, []*gpu.Device{dev}, cuda.Config{}), Config{PinBandwidth: 10}), 0)
	pk := new(Packer).Init(k, []*gpu.Device{dev}, cuda.Config{}, Config{PinBandwidth: 10})
	for _, horizon := range []sim.Time{300, 0} {
		k.Reset(1)
		dev.Init(k, dev.Spec(), 0)
		pk.Init(k, []*gpu.Device{dev}, cuda.Config{}, Config{PinBandwidth: 10})
		if got := packerScript(k, pk, horizon); horizon == 0 && got != want {
			t.Fatalf("the reused packer served\n%s\na new one\n%s", got, want)
		}
	}
}

// TestCutLanesComeBack: the lanes a run cut off mid-call left open, with their
// pinned rows, allocations and processes, are all back on the free list after
// Init, emptied, so the next run's Opens take only them and see nothing of the
// run before: no row, and pointers numbered afresh.
func TestCutLanesComeBack(t *testing.T) {
	k := sim.NewKernel(1)
	dev := testDev(k)
	pk := new(Packer).Init(k, []*gpu.Device{dev}, cuda.Config{}, Config{PinBandwidth: 10})
	cut := map[*Port]bool{}
	for app := 1; app <= 3; app++ {
		k.Go("bt", func(p *sim.Proc) {
			port, _ := pk.Open(p, app, 10)
			cut[port] = true
			ptr, _ := mallocVia(port, 1000)
			for _, call := range []*rpcproto.Call{
				{ID: cuda.CallMemcpyAsync, Dir: cuda.H2D, PtrID: ptr.ID, PtrSize: ptr.Size, Bytes: 400},
				{ID: cuda.CallLaunch, Compute: 1e9, Occupancy: 0.5},
				{ID: cuda.CallStreamSync}, // cut off here
			} {
				port.Execute(call)
			}
		})
	}
	k.RunUntil(1000)
	if len(cut) != 3 || pk.pmt.Len() != 3 {
		t.Fatalf("the cut left %d lanes open and %d rows pinned, want 3 and 3", len(cut), pk.pmt.Len())
	}
	k.Reset(1)
	dev.Init(k, dev.Spec(), 0)
	pk.Init(k, []*gpu.Device{dev}, cuda.Config{}, Config{PinBandwidth: 10})
	if len(pk.free) != len(cut) {
		t.Fatalf("%d lanes on the free list after Init, want the %d the cut left open", len(pk.free), len(cut))
	}
	k.Go("bt", func(p *sim.Proc) {
		for app := 4; app <= 6; app++ {
			port, err := pk.Open(p, app, 10)
			if err != nil || !cut[port] || len(port.pinned) != 0 {
				t.Fatalf("Open = %p, %v with %d pinned rows, want a lane of the cut run, emptied", port, err, len(port.pinned))
			}
			delete(cut, port)
			if ptr, _ := mallocVia(port, 10); ptr.ID != int64(app)<<32|1 {
				t.Errorf("first pointer of app %d = %#x, want %#x", app, ptr.ID, int64(app)<<32|1)
			}
		}
	})
	k.Run()
	if dev.MemUsed() != 30 || pk.pmt.Len() != 0 {
		t.Errorf("the next run holds %d bytes and %d pinned rows, want 30 and none", dev.MemUsed(), pk.pmt.Len())
	}
}
