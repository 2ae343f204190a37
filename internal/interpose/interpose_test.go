package interpose

import (
	"errors"
	"maps"
	"reflect"
	"slices"
	"testing"

	"repro/internal/balancer"
	"repro/internal/cuda"
	"repro/internal/rpcproto"
	"repro/internal/sim"
	"repro/internal/trace"
)

// fakeFabric pairs the interposer with an in-kernel echo backend that
// records the calls it receives and produces scripted replies.
type fakeFabric struct {
	k        *sim.Kernel
	selected []balancer.Request
	gid      balancer.GID
	conn     *rpcproto.Conn
	pool     rpcproto.Pool // the kernel's frame pool, as core gives every conn
	received []*rpcproto.Call
	exitCall *rpcproto.Call // the ThreadExit round trip's frames
	exitRep  *rpcproto.Reply
	feedback []*rpcproto.Feedback
	released []string

	// stale, when set, is answered with the previous call's Seq.
	stale cuda.CallID
	// hop is the link a selection's caller waits out each way.
	hop sim.Time

	// Failure-detector scripting for the recovery tests.
	health    func(gid balancer.GID) balancer.Health // nil → always Suspect
	failures  int
	recovered int
}

func newFakeFabric(k *sim.Kernel) *fakeFabric {
	f := &fakeFabric{k: k, gid: 1, conn: rpcproto.NewConn(k, rpcproto.LinkSpec{})}
	f.conn.SetPools(&f.pool, &f.pool)
	k.Go("fake-backend", func(p *sim.Proc) {
		ep := f.conn.B()
		for {
			call := ep.Recv(p).(*rpcproto.Call)
			// The frontend recycles blocking-call frames after consuming the
			// reply; a backend that retains calls must copy them.
			cc := *call
			f.received = append(f.received, &cc)
			reply := &rpcproto.Reply{Seq: call.Seq}
			if call.ID == f.stale {
				reply.Seq--
			}
			switch call.ID {
			case cuda.CallMalloc:
				reply.PtrID, reply.PtrSize = 77, call.Bytes
			case cuda.CallStreamCreate:
				reply.Stream = 5
			case cuda.CallEventCreate:
				reply.Event = 6
			case cuda.CallEventElapsed:
				reply.Elapsed = 42
			case cuda.CallDeviceCount:
				reply.Count = 4
			case cuda.CallThreadExit:
				reply.Feedback = &rpcproto.Feedback{Kind: call.KernelName, GPUTime: 123}
			}
			if call.ID == cuda.CallThreadExit {
				f.exitCall, f.exitRep = call, reply
				ep.Send(p, reply, 0)
				return
			}
			if !call.NonBlocking {
				ep.Send(p, reply, 0)
			}
		}
	})
	return f
}

func (f *fakeFabric) SelectGPU(req balancer.Request, gid *balancer.GID, done *sim.Event) {
	f.selected = append(f.selected, req)
	*gid = f.gid
	done.Fire()
}
func (f *fakeFabric) SelectHop() sim.Time { return f.hop }
func (f *fakeFabric) ConnectBackend(p *sim.Proc, gid balancer.GID, fromNode int) rpcproto.Endpoint {
	return f.conn.A()
}
func (f *fakeFabric) ReportFeedback(gid balancer.GID, kind string, fb *rpcproto.Feedback) {
	f.released = append(f.released, kind)
	f.feedback = append(f.feedback, fb)
}
func (f *fakeFabric) ReportFailure(p *sim.Proc, gid balancer.GID) balancer.Health {
	f.failures++
	if f.health == nil {
		return balancer.Suspect
	}
	return f.health(gid)
}
func (f *fakeFabric) ReportRecovered(gid balancer.GID) { f.recovered++ }
func (f *fakeFabric) PoolSize() int                    { return 4 }

func drive(t *testing.T, fn func(f *fakeFabric, ip *Interposer)) *fakeFabric {
	t.Helper()
	k := sim.NewKernel(1)
	f := newFakeFabric(k)
	k.Go("app", func(p *sim.Proc) {
		ip := New(f, p, 9, 3, 2, "MC", 0, true)
		fn(f, ip)
	})
	k.Run()
	return f
}

func TestSetDeviceOverridesSelection(t *testing.T) {
	f := drive(t, func(f *fakeFabric, ip *Interposer) {
		if err := ip.SetDevice(0); err != nil {
			t.Errorf("SetDevice: %v", err)
		}
		if ip.gid != 1 {
			t.Errorf("Device = %d, want balancer's GID 1", ip.gid)
		}
		// A second SetDevice is ignored: the balancer owns placement.
		if err := ip.SetDevice(3); err != nil {
			t.Errorf("re-SetDevice: %v", err)
		}
	})
	if len(f.selected) != 1 {
		t.Fatalf("selections = %d, want 1", len(f.selected))
	}
	req := f.selected[0]
	if req.Kind != "MC" || req.AppID != 9 || req.Tenant != 3 {
		t.Fatalf("selection request = %+v", req)
	}
	reg := f.received[0]
	if reg.ID != cuda.CallSetDevice || reg.KernelName != "MC" || reg.Weight != 2 {
		t.Fatalf("registration call = %+v", reg)
	}
}

func TestLazyBindingOnFirstCall(t *testing.T) {
	f := drive(t, func(f *fakeFabric, ip *Interposer) {
		if _, err := ip.Malloc(100); err != nil {
			t.Errorf("Malloc: %v", err)
		}
	})
	if len(f.selected) != 1 {
		t.Fatalf("lazy bind selections = %d", len(f.selected))
	}
	if f.received[0].ID != cuda.CallSetDevice || f.received[1].ID != cuda.CallMalloc {
		t.Fatalf("call order = %v, %v", f.received[0].ID, f.received[1].ID)
	}
}

func TestAsyncCallsAreNonBlocking(t *testing.T) {
	f := drive(t, func(f *fakeFabric, ip *Interposer) {
		ip.SetDevice(0)
		ptr, _ := ip.Malloc(1000)
		t0 := ip.Proc().Now()
		if err := ip.Memcpy(cuda.H2D, ptr, 500); err != nil {
			t.Errorf("H2D: %v", err)
		}
		if err := ip.Launch(cuda.Kernel{Compute: 1}, cuda.DefaultStream); err != nil {
			t.Errorf("Launch: %v", err)
		}
		if err := ip.Free(ptr); err != nil {
			t.Errorf("Free: %v", err)
		}
		if d := ip.Proc().Now() - t0; d > 3*MarshalOverhead {
			t.Errorf("async calls blocked for %v", d)
		}
	})
	var flags []bool
	for _, c := range f.received {
		flags = append(flags, c.NonBlocking)
	}
	// SetDevice and Malloc block; H2D memcpy, launch and free do not.
	want := []bool{false, false, true, true, true}
	for i := range want {
		if flags[i] != want[i] {
			t.Fatalf("NonBlocking flags = %v, want %v", flags, want)
		}
	}
}

func TestSyncModeForcesBlocking(t *testing.T) {
	// async=false (the Rain frontend) turns every RPC synchronous.
	k := sim.NewKernel(1)
	f := newFakeFabric(k)
	k.Go("app", func(p *sim.Proc) {
		ip := New(f, p, 9, 3, 1, "MC", 0, false)
		ip.SetDevice(0)
		ptr, _ := ip.Malloc(100)
		ip.Memcpy(cuda.H2D, ptr, 50)
		ip.Launch(cuda.Kernel{Compute: 1}, cuda.DefaultStream)
	})
	k.Run()
	for _, c := range f.received {
		if c.NonBlocking {
			t.Fatalf("call %v non-blocking under sync frontend", c.ID)
		}
	}
}

func TestD2HBlocksForData(t *testing.T) {
	drive(t, func(f *fakeFabric, ip *Interposer) {
		ip.SetDevice(0)
		ptr, _ := ip.Malloc(100)
		if err := ip.Memcpy(cuda.D2H, ptr, 50); err != nil {
			t.Errorf("D2H: %v", err)
		}
		// The reply consumed above must leave the reply stream aligned.
		if n := ip.DeviceCount(); n != 4 {
			t.Errorf("DeviceCount = %d", n)
		}
	})
}

func TestStreamLifecycleForwarded(t *testing.T) {
	f := drive(t, func(f *fakeFabric, ip *Interposer) {
		ip.SetDevice(0)
		s, err := ip.StreamCreate()
		if err != nil || s != 5 {
			t.Errorf("StreamCreate = %v, %v", s, err)
		}
		if err := ip.MemcpyAsync(cuda.H2D, cuda.Ptr{ID: 1, Size: 10}, 10, s); err != nil {
			t.Errorf("MemcpyAsync: %v", err)
		}
		if err := ip.StreamSynchronize(s); err != nil {
			t.Errorf("StreamSynchronize: %v", err)
		}
		if err := ip.StreamDestroy(s); err != nil {
			t.Errorf("StreamDestroy: %v", err)
		}
		if err := ip.DeviceSynchronize(); err != nil {
			t.Errorf("DeviceSynchronize: %v", err)
		}
	})
	var ids []cuda.CallID
	for _, c := range f.received {
		ids = append(ids, c.ID)
	}
	want := []cuda.CallID{cuda.CallSetDevice, cuda.CallStreamCreate,
		cuda.CallMemcpyAsync, cuda.CallStreamSync, cuda.CallStreamDestroy, cuda.CallDeviceSync}
	for i := range want {
		if ids[i] != want[i] {
			t.Fatalf("call sequence = %v, want %v", ids, want)
		}
	}
}

func TestThreadExitRelaysFeedback(t *testing.T) {
	f := drive(t, func(f *fakeFabric, ip *Interposer) {
		ip.SetDevice(0)
		if err := ip.ThreadExit(); err != nil {
			t.Errorf("ThreadExit: %v", err)
		}
		if ip.LastFeedback == nil || ip.LastFeedback.GPUTime != 123 {
			t.Errorf("LastFeedback = %+v", ip.LastFeedback)
		}
		if err := ip.ThreadExit(); !errors.Is(err, cuda.ErrThreadExited) {
			t.Errorf("second exit = %v", err)
		}
	})
	if len(f.feedback) != 1 || f.feedback[0].GPUTime != 123 {
		t.Fatalf("relayed feedback = %+v", f.feedback)
	}
	if len(f.released) != 1 || f.released[0] != "MC" {
		t.Fatalf("released = %v", f.released)
	}
	// No next call will recycle the exit round trip's frames, so ThreadExit
	// did, after copying the feedback out: the pool hands back those very
	// frames, zeroed.
	if r := f.pool.GetReply(); r != f.exitRep || r.Feedback != nil {
		t.Fatalf("the pool's reply is %p %+v, want the exit reply %p zeroed", r, r, f.exitRep)
	}
	if c := f.pool.GetCall(); c != f.exitCall || c.ID != 0 {
		t.Fatalf("the pool's call is %p %+v, want the exit call %p zeroed", c, c, f.exitCall)
	}
}

// Every call after ThreadExit fails at once with ErrThreadExited and sends
// nothing: the backend session has exited, so a call that reached its inbox
// would wait for a reply forever.
func TestCallsAfterThreadExitFail(t *testing.T) {
	k := sim.NewKernel(1)
	defer k.Close()
	f := newFakeFabric(k)
	k.Go("app", func(p *sim.Proc) {
		ip := New(f, p, 9, 3, 2, "MC", 0, true)
		ptr, err := ip.Malloc(100)
		if err != nil {
			t.Errorf("Malloc: %v", err)
		}
		if err := ip.ThreadExit(); err != nil {
			t.Errorf("ThreadExit: %v", err)
		}
		sent := len(f.received)
		calls := map[string]func() error{
			"SetDevice":         func() error { return ip.SetDevice(0) },
			"Malloc":            func() error { _, err := ip.Malloc(100); return err },
			"Free":              func() error { return ip.Free(ptr) },
			"Memcpy":            func() error { return ip.Memcpy(cuda.D2H, ptr, 10) },
			"MemcpyAsync":       func() error { return ip.MemcpyAsync(cuda.H2D, ptr, 10, 0) },
			"Launch":            func() error { return ip.Launch(cuda.Kernel{Name: "k"}, 0) },
			"StreamCreate":      func() error { _, err := ip.StreamCreate(); return err },
			"StreamSynchronize": func() error { return ip.StreamSynchronize(0) },
			"StreamDestroy":     func() error { return ip.StreamDestroy(5) },
			"DeviceSynchronize": ip.DeviceSynchronize,
			"EventCreate":       func() error { _, err := ip.EventCreate(); return err },
			"EventRecord":       func() error { return ip.EventRecord(6, 0) },
			"EventSynchronize":  func() error { return ip.EventSynchronize(6) },
			"EventElapsed":      func() error { _, err := ip.EventElapsed(6, 6); return err },
			"EventDestroy":      func() error { return ip.EventDestroy(6) },
			"ThreadExit":        ip.ThreadExit,
		}
		for _, name := range slices.Sorted(maps.Keys(calls)) {
			if err := calls[name](); !errors.Is(err, cuda.ErrThreadExited) {
				t.Errorf("%s after ThreadExit = %v, want ErrThreadExited", name, err)
			}
		}
		if len(f.received) != sent {
			t.Errorf("%d calls reached the backend after ThreadExit", len(f.received)-sent)
		}
	})
	k.Run()
	if b := k.Blocked(); len(b) != 0 {
		t.Fatalf("blocked after the run: %v", b)
	}
}

func TestEventCallsForwarded(t *testing.T) {
	f := drive(t, func(f *fakeFabric, ip *Interposer) {
		start, err := ip.EventCreate()
		if err != nil || start != 6 {
			t.Errorf("EventCreate = %v, %v", start, err)
		}
		if err := ip.EventRecord(start, cuda.DefaultStream); err != nil {
			t.Errorf("EventRecord: %v", err)
		}
		if err := ip.EventSynchronize(start); err != nil {
			t.Errorf("EventSynchronize: %v", err)
		}
		if d, err := ip.EventElapsed(start, start); err != nil || d != 42 {
			t.Errorf("EventElapsed = %v, %v, want 42us", d, err)
		}
		if err := ip.EventDestroy(start); err != nil {
			t.Errorf("EventDestroy: %v", err)
		}
	})
	want := []cuda.CallID{cuda.CallSetDevice, cuda.CallEventCreate, cuda.CallEventRecord,
		cuda.CallEventSync, cuda.CallEventElapsed, cuda.CallEventDestroy}
	if len(f.received) != len(want) {
		t.Fatalf("received %d calls, want %d", len(f.received), len(want))
	}
	for i, c := range f.received {
		if c.ID != want[i] || c.NonBlocking != (c.ID == cuda.CallEventRecord || c.ID == cuda.CallEventDestroy) {
			t.Fatalf("call %d = %v (non-blocking %v), want %v", i, c.ID, c.NonBlocking, want[i])
		}
		if i > 1 && c.Event != 6 {
			t.Fatalf("call %v names event %d, want 6", c.ID, c.Event)
		}
	}
	if f.received[4].Event2 != 6 {
		t.Fatalf("EventElapsed's end event = %d, want 6", f.received[4].Event2)
	}
}

// A reply whose Seq is not the blocking call's fails the call: outside
// recovery mode nothing retransmits, so no later reply would answer it.
func TestReplySeqMismatchFailsTheCall(t *testing.T) {
	finished := false
	drive(t, func(f *fakeFabric, ip *Interposer) {
		f.stale = cuda.CallMalloc
		_, err := ip.Malloc(100)
		if err == nil || err.Error() != "interpose: reply 1 does not answer call 2" {
			t.Errorf("Malloc answered with the previous call's Seq: err = %v", err)
		}
		finished = true
	})
	if !finished {
		t.Fatal("the app is still waiting for a reply that will never come")
	}
}

func TestSendTracesEachCall(t *testing.T) {
	rec := trace.New()
	drive(t, func(f *fakeFabric, ip *Interposer) {
		ip.SetTrace(rec, 0)
		if _, err := ip.Malloc(100); err != nil {
			t.Errorf("Malloc: %v", err)
		}
		if ip.GID() != f.gid {
			t.Errorf("GID = %d, want %d", ip.GID(), f.gid)
		}
	})
	var calls []string
	for _, sp := range rec.Snapshot().Spans {
		if sp.Kind == trace.KCall {
			calls = append(calls, sp.Name)
		}
	}
	if !reflect.DeepEqual(calls, []string{"cudaSetDevice", "cudaMalloc"}) {
		t.Fatalf("call spans = %v", calls)
	}
}
