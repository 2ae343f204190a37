package interpose

import (
	"errors"
	"reflect"
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
func (f *fakeFabric) SelectHop() sim.Time                               { return f.hop }
func (f *fakeFabric) ConnectBackend(gid balancer.GID) rpcproto.Endpoint { return f.conn.A() }
func (f *fakeFabric) ReportFeedback(gid balancer.GID, kind string, fb *rpcproto.Feedback) {
	f.released = append(f.released, kind)
	f.feedback = append(f.feedback, fb)
}
func (f *fakeFabric) ReportFailure(gid balancer.GID, h *balancer.Health, done *sim.Event) {
	f.failures++
	*h = balancer.Suspect
	if f.health != nil {
		*h = f.health(gid)
	}
	done.Fire()
}
func (f *fakeFabric) ReportRecovered(gid balancer.GID) { f.recovered++ }
func (f *fakeFabric) PoolSize() int                    { return 4 }

// run makes ops through ip from a daemon on k, one after another, and runs
// k; check, if set, sees each call's outcome as it ends.
func run(k *sim.Kernel, ip *Interposer, ops []cuda.Op, check func(i int, r cuda.Ret, err error)) {
	i, busy := 0, false
	k.GoDaemon("app", func(d *sim.Daemon) {
		for ; i < len(ops); i++ {
			if !busy {
				busy = true
				ip.Issue(&ops[i])
			}
			if !ip.Await(d) {
				return
			}
			busy = false
			if r, err := ip.Result(); check != nil {
				check(i, r, err)
			}
		}
		d.Exit()
	})
	k.Run()
}

// drive makes ops on an interposer over a fake backend, with the asynchrony
// optimization as Strings has it or, with sync, as Rain does not; setup, if
// set, runs first, and check sees each call's outcome.
func drive(sync bool, setup func(f *fakeFabric, ip *Interposer), ops []cuda.Op,
	check func(f *fakeFabric, ip *Interposer, i int, r cuda.Ret, err error)) *fakeFabric {
	k := sim.NewKernel(1)
	f := newFakeFabric(k)
	var ip Interposer
	ip.Init(f, k, 9, 3, 2, "MC", 0, !sync)
	if setup != nil {
		setup(f, &ip)
	}
	run(k, &ip, ops, func(i int, r cuda.Ret, err error) { check(f, &ip, i, r, err) })
	return f
}

// noErr fails t on any call's error.
func noErr(t *testing.T) func(f *fakeFabric, ip *Interposer, i int, r cuda.Ret, err error) {
	return func(f *fakeFabric, ip *Interposer, i int, r cuda.Ret, err error) {
		if err != nil {
			t.Errorf("call %d: %v", i, err)
		}
	}
}

// The fake backend hands out pointer 77, stream 5 and event 6.
var (
	setDevice = cuda.Op{ID: cuda.CallSetDevice}
	ptr77     = cuda.Ptr{ID: 77, Size: 100}
)

func TestSetDeviceOverridesSelection(t *testing.T) {
	f := drive(false, nil, []cuda.Op{setDevice, {ID: cuda.CallSetDevice, Dev: 3}}, func(f *fakeFabric, ip *Interposer, i int, r cuda.Ret, err error) {
		if err != nil {
			t.Errorf("SetDevice %d: %v", i, err)
		}
		// The second SetDevice is ignored: the balancer owns placement.
		if ip.gid != 1 {
			t.Errorf("Device = %d, want balancer's GID 1", ip.gid)
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
	f := drive(false, nil, []cuda.Op{{ID: cuda.CallMalloc, Bytes: 100}}, noErr(t))
	if len(f.selected) != 1 {
		t.Fatalf("lazy bind selections = %d", len(f.selected))
	}
	if f.received[0].ID != cuda.CallSetDevice || f.received[1].ID != cuda.CallMalloc {
		t.Fatalf("call order = %v, %v", f.received[0].ID, f.received[1].ID)
	}
}

func TestAsyncCallsAreNonBlocking(t *testing.T) {
	ptr := cuda.Ptr{ID: 77, Size: 1000}
	var t0 sim.Time
	f := drive(false, nil, []cuda.Op{setDevice, {ID: cuda.CallMalloc, Bytes: 1000},
		{ID: cuda.CallMemcpy, Dir: cuda.H2D, Ptr: ptr, Bytes: 500},
		{ID: cuda.CallLaunch, Kernel: cuda.Kernel{Compute: 1}},
		{ID: cuda.CallFree, Ptr: ptr}}, func(f *fakeFabric, ip *Interposer, i int, r cuda.Ret, err error) {
		if err != nil {
			t.Errorf("call %d: %v", i, err)
		}
		switch i {
		case 1:
			if r.Ptr != ptr {
				t.Errorf("Malloc = %+v, want %+v", r.Ptr, ptr)
			}
			t0 = f.k.Now()
		case 4:
			if d := f.k.Now() - t0; d > 3*MarshalOverhead {
				t.Errorf("async calls blocked for %v", d)
			}
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
	f := drive(true, nil, []cuda.Op{setDevice, {ID: cuda.CallMalloc, Bytes: 100},
		{ID: cuda.CallMemcpy, Dir: cuda.H2D, Ptr: ptr77, Bytes: 50},
		{ID: cuda.CallLaunch, Kernel: cuda.Kernel{Compute: 1}}}, noErr(t))
	for _, c := range f.received {
		if c.NonBlocking {
			t.Fatalf("call %v non-blocking under sync frontend", c.ID)
		}
	}
}

func TestD2HBlocksForData(t *testing.T) {
	drive(false, nil, []cuda.Op{setDevice, {ID: cuda.CallMalloc, Bytes: 100},
		{ID: cuda.CallMemcpy, Dir: cuda.D2H, Ptr: ptr77, Bytes: 50}, {ID: cuda.CallDeviceCount}},
		func(f *fakeFabric, ip *Interposer, i int, r cuda.Ret, err error) {
			if err != nil {
				t.Errorf("call %d: %v", i, err)
			}
			// The reply consumed above must leave the reply stream aligned.
			if i == 3 && r.Count != 4 {
				t.Errorf("DeviceCount = %d", r.Count)
			}
		})
}

func TestStreamLifecycleForwarded(t *testing.T) {
	f := drive(false, nil, []cuda.Op{setDevice, {ID: cuda.CallStreamCreate},
		{ID: cuda.CallMemcpyAsync, Dir: cuda.H2D, Ptr: cuda.Ptr{ID: 1, Size: 10}, Bytes: 10, Stream: 5},
		{ID: cuda.CallStreamSync, Stream: 5}, {ID: cuda.CallStreamDestroy, Stream: 5}, {ID: cuda.CallDeviceSync}},
		func(f *fakeFabric, ip *Interposer, i int, r cuda.Ret, err error) {
			if err != nil {
				t.Errorf("call %d: %v", i, err)
			}
			if i == 1 && r.Stream != 5 {
				t.Errorf("StreamCreate = %v", r.Stream)
			}
		})
	var ids []cuda.CallID
	for _, c := range f.received {
		ids = append(ids, c.ID)
	}
	want := []cuda.CallID{cuda.CallSetDevice, cuda.CallStreamCreate,
		cuda.CallMemcpyAsync, cuda.CallStreamSync, cuda.CallStreamDestroy, cuda.CallDeviceSync}
	if !reflect.DeepEqual(ids, want) {
		t.Fatalf("call sequence = %v, want %v", ids, want)
	}
}

func TestThreadExitRelaysFeedback(t *testing.T) {
	exit := cuda.Op{ID: cuda.CallThreadExit}
	f := drive(false, nil, []cuda.Op{setDevice, exit, exit}, func(f *fakeFabric, ip *Interposer, i int, r cuda.Ret, err error) {
		switch i {
		case 1:
			if err != nil {
				t.Errorf("ThreadExit: %v", err)
			}
			if ip.LastFeedback == nil || ip.LastFeedback.GPUTime != 123 {
				t.Errorf("LastFeedback = %+v", ip.LastFeedback)
			}
		case 2:
			if !errors.Is(err, cuda.ErrThreadExited) {
				t.Errorf("second exit = %v", err)
			}
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
	ops := []cuda.Op{{ID: cuda.CallMalloc, Bytes: 100}, {ID: cuda.CallThreadExit}}
	for id := cuda.CallSetDevice; id <= cuda.CallEventDestroy; id++ {
		if id != cuda.CallDeviceCount { // answered locally, from the gPool
			ops = append(ops, cuda.Op{ID: id, Ptr: ptr77, Dir: cuda.D2H, Bytes: 10, Stream: 5, Event: 6, Event2: 6})
		}
	}
	sent := 0
	f := drive(false, nil, ops, func(f *fakeFabric, ip *Interposer, i int, r cuda.Ret, err error) {
		switch {
		case i < 2 && err != nil:
			t.Errorf("%v: %v", ops[i].ID, err)
		case i == 1:
			sent = len(f.received)
		case i >= 2 && !errors.Is(err, cuda.ErrThreadExited):
			t.Errorf("%v after ThreadExit = %v, want ErrThreadExited", ops[i].ID, err)
		}
	})
	if len(f.received) != sent {
		t.Errorf("%d calls reached the backend after ThreadExit", len(f.received)-sent)
	}
	if b := f.k.Blocked(); len(b) != 0 {
		t.Fatalf("blocked after the run: %v", b)
	}
}

func TestEventCallsForwarded(t *testing.T) {
	f := drive(false, nil, []cuda.Op{{ID: cuda.CallEventCreate}, {ID: cuda.CallEventRecord, Event: 6},
		{ID: cuda.CallEventSync, Event: 6}, {ID: cuda.CallEventElapsed, Event: 6, Event2: 6},
		{ID: cuda.CallEventDestroy, Event: 6}}, func(f *fakeFabric, ip *Interposer, i int, r cuda.Ret, err error) {
		if err != nil {
			t.Errorf("call %d: %v", i, err)
		}
		if i == 0 && r.Event != 6 {
			t.Errorf("EventCreate = %v", r.Event)
		}
		if i == 3 && r.Elapsed != 42 {
			t.Errorf("EventElapsed = %v, want 42us", r.Elapsed)
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
	stale := func(f *fakeFabric, ip *Interposer) { f.stale = cuda.CallMalloc }
	drive(false, stale, []cuda.Op{{ID: cuda.CallMalloc, Bytes: 100}}, func(f *fakeFabric, ip *Interposer, i int, r cuda.Ret, err error) {
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
	traced := func(f *fakeFabric, ip *Interposer) { ip.SetTrace(rec, 0) }
	drive(false, traced, []cuda.Op{{ID: cuda.CallMalloc, Bytes: 100}}, func(f *fakeFabric, ip *Interposer, i int, r cuda.Ret, err error) {
		if err != nil {
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
