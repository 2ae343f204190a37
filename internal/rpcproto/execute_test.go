package rpcproto

import (
	"fmt"
	"reflect"
	"testing"

	"repro/internal/cuda"
	"repro/internal/gpu"
	"repro/internal/sim"
)

// fakeClient records the one cuda.Client method a call turned into, with its
// arguments, and answers with canned outputs and a canned error.
type fakeClient struct {
	got string
	err error
}

func (f *fakeClient) note(format string, a ...any) error {
	f.got = fmt.Sprintf(format, a...)
	return f.err
}

func (f *fakeClient) SetDevice(dev int) error { return f.note("SetDevice(%d)", dev) }
func (f *fakeClient) Device() int             { return 0 }
func (f *fakeClient) DeviceCount() int        { f.note("DeviceCount()"); return 3 }
func (f *fakeClient) Malloc(bytes int64) (cuda.Ptr, error) {
	return cuda.Ptr{Dev: 2, ID: 41, Size: bytes}, f.note("Malloc(%d)", bytes)
}
func (f *fakeClient) Free(p cuda.Ptr) error { return f.note("Free(%v)", p) }
func (f *fakeClient) Memcpy(dir cuda.Dir, p cuda.Ptr, bytes int64) error {
	return f.note("Memcpy(%v,%v,%d)", dir, p, bytes)
}
func (f *fakeClient) MemcpyAsync(dir cuda.Dir, p cuda.Ptr, bytes int64, s cuda.StreamID) error {
	return f.note("MemcpyAsync(%v,%v,%d,%d)", dir, p, bytes, s)
}
func (f *fakeClient) Launch(k cuda.Kernel, s cuda.StreamID) error {
	return f.note("Launch(%v,%d)", k, s)
}
func (f *fakeClient) StreamCreate() (cuda.StreamID, error) { return 5, f.note("StreamCreate()") }
func (f *fakeClient) StreamSynchronize(s cuda.StreamID) error {
	return f.note("StreamSynchronize(%d)", s)
}
func (f *fakeClient) StreamDestroy(s cuda.StreamID) error { return f.note("StreamDestroy(%d)", s) }
func (f *fakeClient) DeviceSynchronize() error            { return f.note("DeviceSynchronize()") }
func (f *fakeClient) EventCreate() (cuda.EventID, error)  { return 6, f.note("EventCreate()") }
func (f *fakeClient) EventRecord(e cuda.EventID, s cuda.StreamID) error {
	return f.note("EventRecord(%d,%d)", e, s)
}
func (f *fakeClient) EventSynchronize(e cuda.EventID) error { return f.note("EventSynchronize(%d)", e) }
func (f *fakeClient) EventElapsed(start, end cuda.EventID) (sim.Time, error) {
	return 77, f.note("EventElapsed(%d,%d)", start, end)
}
func (f *fakeClient) EventDestroy(e cuda.EventID) error { return f.note("EventDestroy(%d)", e) }
func (f *fakeClient) ThreadExit() error                 { return f.note("ThreadExit()") }
func (f *fakeClient) Proc() *sim.Proc                   { return nil }

// TestExecuteConformance pins the executor opcode by opcode: which method a
// frame becomes and with which arguments, which reply fields carry the
// outputs, and that a failure comes back as the error string alone.
func TestExecuteConformance(t *testing.T) {
	// One frame with every field set: each opcode must pick out its own.
	frame := Call{
		Seq: 9, AppID: 4, TenantID: 8, Weight: 2, Dev: 1, Stream: 3, Event: 11, Event2: 12,
		Dir: cuda.D2H, Bytes: 4096, PtrID: 21, PtrSize: 8192, PtrDev: 1,
		KernelName: "k", Compute: 1.5, MemTraffic: 2.5, Occupancy: 0.5,
	}
	ptr := cuda.Ptr{Dev: 1, ID: 21, Size: 8192}
	kern := cuda.Kernel{Name: "k", Compute: 1.5, MemTraffic: 2.5, Occupancy: 0.5}
	cases := []struct {
		id   cuda.CallID
		want string // the method call; "" = none
		out  Reply  // outputs on success (Seq aside)
	}{
		{cuda.CallSetDevice, "SetDevice(1)", Reply{}},
		{cuda.CallDeviceCount, "DeviceCount()", Reply{Count: 3}},
		{cuda.CallMalloc, "Malloc(4096)", Reply{PtrID: 41, PtrSize: 4096, PtrDev: 2}},
		{cuda.CallFree, fmt.Sprintf("Free(%v)", ptr), Reply{}},
		{cuda.CallMemcpy, fmt.Sprintf("Memcpy(%v,%v,4096)", cuda.D2H, ptr), Reply{}},
		{cuda.CallMemcpyAsync, fmt.Sprintf("MemcpyAsync(%v,%v,4096,3)", cuda.D2H, ptr), Reply{}},
		{cuda.CallLaunch, fmt.Sprintf("Launch(%v,3)", kern), Reply{}},
		{cuda.CallStreamCreate, "StreamCreate()", Reply{Stream: 5}},
		{cuda.CallStreamSync, "StreamSynchronize(3)", Reply{}},
		{cuda.CallStreamDestroy, "StreamDestroy(3)", Reply{}},
		{cuda.CallDeviceSync, "DeviceSynchronize()", Reply{}},
		{cuda.CallThreadExit, "ThreadExit()", Reply{}},
		{cuda.CallEventCreate, "EventCreate()", Reply{Event: 6}},
		{cuda.CallEventRecord, "EventRecord(11,3)", Reply{}},
		{cuda.CallEventSync, "EventSynchronize(11)", Reply{}},
		{cuda.CallEventElapsed, "EventElapsed(11,12)", Reply{Elapsed: 77}},
		{cuda.CallEventDestroy, "EventDestroy(11)", Reply{}},
		{cuda.CallID(99), "", Reply{Err: cuda.ErrNotImplemented.Error()}},
	}
	if len(cases) != int(cuda.CallEventDestroy)+1 {
		t.Fatalf("table has %d rows for %d opcodes plus an unknown one", len(cases), cuda.CallEventDestroy)
	}
	for _, tc := range cases {
		call := frame
		call.ID = tc.id
		sent := call

		f := &fakeClient{}
		var reply Reply
		Execute(f, &call, &reply)
		want := tc.out
		want.Seq = 9
		if f.got != tc.want || !reflect.DeepEqual(reply, want) {
			t.Errorf("%v: called %q, reply %+v; want %q, %+v", tc.id, f.got, reply, tc.want, want)
		}
		if call != sent {
			t.Errorf("%v: Execute rewrote the frame: %+v", tc.id, call)
		}

		// The same call failing: the error string, and no output fields —
		// except cudaGetDeviceCount, which cannot fail.
		if tc.want == "" || tc.id == cuda.CallDeviceCount {
			continue
		}
		f = &fakeClient{err: cuda.ErrInvalidValue}
		reply = Reply{}
		Execute(f, &call, &reply)
		if want := (Reply{Seq: 9, Err: cuda.ErrInvalidValue.Error()}); !reflect.DeepEqual(reply, want) {
			t.Errorf("%v failing: reply %+v, want %+v", tc.id, reply, want)
		}
		if reply.AsError() != cuda.ErrInvalidValue {
			t.Errorf("%v failing: AsError = %v", tc.id, reply.AsError())
		}
	}
}

// script is a CUDA program exercising every blocking and non-blocking call
// class: allocation, sync and async copies on two streams, kernels, events,
// errors, teardown.
func script(t cuda.Client) []Reply {
	var out []Reply
	do := func(c Call) Reply {
		c.Seq = uint64(len(out) + 1)
		var r Reply
		Execute(t, &c, &r)
		out = append(out, r)
		return r
	}
	do(Call{ID: cuda.CallSetDevice})
	do(Call{ID: cuda.CallSetDevice, Dev: 4}) // no such device
	do(Call{ID: cuda.CallDeviceCount})
	m := do(Call{ID: cuda.CallMalloc, Bytes: 64 << 10})
	on := func(c Call) Call { c.PtrID, c.PtrSize, c.PtrDev = m.PtrID, m.PtrSize, m.PtrDev; return c }
	do(on(Call{ID: cuda.CallMemcpy, Dir: cuda.H2D, Bytes: 64 << 10}))
	do(on(Call{ID: cuda.CallMemcpy, Dir: cuda.H2D, Bytes: 65 << 10})) // overruns
	s := do(Call{ID: cuda.CallStreamCreate}).Stream
	e1 := do(Call{ID: cuda.CallEventCreate}).Event
	e2 := do(Call{ID: cuda.CallEventCreate}).Event
	do(Call{ID: cuda.CallEventRecord, Event: e1, Stream: s})
	do(on(Call{ID: cuda.CallMemcpyAsync, Dir: cuda.H2D, Bytes: 32 << 10, Stream: s}))
	do(Call{ID: cuda.CallLaunch, KernelName: "k", Compute: 40000, Occupancy: 0.4, Stream: s})
	do(Call{ID: cuda.CallLaunch, KernelName: "k", Compute: 9000, MemTraffic: 100})
	do(Call{ID: cuda.CallEventRecord, Event: e2, Stream: s})
	do(Call{ID: cuda.CallEventSync, Event: e2})
	do(Call{ID: cuda.CallEventElapsed, Event: e1, Event2: e2})
	do(Call{ID: cuda.CallEventElapsed, Event: e2, Event2: e1}) // reversed
	do(Call{ID: cuda.CallStreamSync})
	do(Call{ID: cuda.CallStreamSync, Stream: 42}) // unknown stream
	do(on(Call{ID: cuda.CallMemcpy, Dir: cuda.D2H, Bytes: 16 << 10}))
	do(Call{ID: cuda.CallLaunch, KernelName: "k", Compute: 20000, Stream: s})
	do(Call{ID: cuda.CallStreamDestroy, Stream: s}) // drains the kernel
	do(Call{ID: cuda.CallEventDestroy, Event: e1})
	do(Call{ID: cuda.CallEventSync, Event: e1}) // destroyed
	do(Call{ID: cuda.CallLaunch, KernelName: "k", Compute: 5000})
	do(Call{ID: cuda.CallDeviceSync})
	f := on(Call{ID: cuda.CallFree})
	f.PtrSize++
	do(f) // forged size
	do(on(Call{ID: cuda.CallFree}))
	do(Call{ID: cuda.CallID(99)})
	do(Call{ID: cuda.CallThreadExit})
	do(Call{ID: cuda.CallMalloc, Bytes: 1}) // after exit
	return out
}

// directScript is script written against cuda.Client by hand: what an
// application linked against the bare runtime would do.
func directScript(t cuda.Client) []Reply {
	var out []Reply
	add := func(r Reply, err error) {
		r.Seq = uint64(len(out) + 1)
		r.SetError(err)
		out = append(out, r)
	}
	add(Reply{}, t.SetDevice(0))
	add(Reply{}, t.SetDevice(4))
	add(Reply{Count: int32(t.DeviceCount())}, nil)
	ptr, err := t.Malloc(64 << 10)
	add(Reply{PtrID: ptr.ID, PtrSize: ptr.Size, PtrDev: int32(ptr.Dev)}, err)
	add(Reply{}, t.Memcpy(cuda.H2D, ptr, 64<<10))
	add(Reply{}, t.Memcpy(cuda.H2D, ptr, 65<<10))
	s, err := t.StreamCreate()
	add(Reply{Stream: int32(s)}, err)
	e1, err := t.EventCreate()
	add(Reply{Event: int32(e1)}, err)
	e2, err := t.EventCreate()
	add(Reply{Event: int32(e2)}, err)
	add(Reply{}, t.EventRecord(e1, s))
	add(Reply{}, t.MemcpyAsync(cuda.H2D, ptr, 32<<10, s))
	add(Reply{}, t.Launch(cuda.Kernel{Name: "k", Compute: 40000, Occupancy: 0.4}, s))
	add(Reply{}, t.Launch(cuda.Kernel{Name: "k", Compute: 9000, MemTraffic: 100}, cuda.DefaultStream))
	add(Reply{}, t.EventRecord(e2, s))
	add(Reply{}, t.EventSynchronize(e2))
	d, err := t.EventElapsed(e1, e2)
	add(Reply{Elapsed: int64(d)}, err)
	_, err = t.EventElapsed(e2, e1)
	add(Reply{}, err)
	add(Reply{}, t.StreamSynchronize(cuda.DefaultStream))
	add(Reply{}, t.StreamSynchronize(42))
	add(Reply{}, t.Memcpy(cuda.D2H, ptr, 16<<10))
	add(Reply{}, t.Launch(cuda.Kernel{Name: "k", Compute: 20000}, s))
	add(Reply{}, t.StreamDestroy(s))
	add(Reply{}, t.EventDestroy(e1))
	add(Reply{}, t.EventSynchronize(e1))
	add(Reply{}, t.Launch(cuda.Kernel{Name: "k", Compute: 5000}, cuda.DefaultStream))
	add(Reply{}, t.DeviceSynchronize())
	forged := ptr
	forged.Size++
	add(Reply{}, t.Free(forged))
	add(Reply{}, t.Free(ptr))
	add(Reply{}, cuda.ErrNotImplemented)
	add(Reply{}, t.ThreadExit())
	_, err = t.Malloc(1)
	add(Reply{}, err)
	return out
}

// TestExecuteTwinRun runs the same program twice on identical devices — once
// calling a cuda.Thread directly, once as marshalled frames through Execute —
// and requires equal replies, an equal end time and an equal event count:
// the executor adds nothing and drops nothing.
func TestExecuteTwinRun(t *testing.T) {
	run := func(prog func(cuda.Client) []Reply) (replies []Reply, end sim.Time, events uint64) {
		k := sim.NewKernel(1)
		dev := gpu.NewDevice(k, gpu.Spec{
			Name: "t", ComputeRate: 1000, MemBandwidth: 100,
			H2DBandwidth: 10, D2HBandwidth: 10, CopyEngines: 2,
			ContextSwitch: 100, TimeSlice: sim.Millisecond, MemBytes: 1 << 20, Weight: 1,
		}, 0)
		rt := cuda.NewRuntime(k, []*gpu.Device{dev}, cuda.DefaultConfig())
		k.Go("app", func(p *sim.Proc) {
			replies = prog(rt.NewThread(p, 3))
			end = p.Now()
		})
		k.Run()
		return replies, end, k.Dispatched()
	}
	direct, directEnd, directEvents := run(directScript)
	wire, wireEnd, wireEvents := run(script)
	if len(direct) != len(wire) {
		t.Fatalf("direct run made %d calls, wire run %d", len(direct), len(wire))
	}
	failed := 0
	for i := range direct {
		if !reflect.DeepEqual(direct[i], wire[i]) {
			t.Errorf("call %d: direct %+v, through Execute %+v", i+1, direct[i], wire[i])
		}
		if wire[i].Err != "" {
			failed++
		}
	}
	if directEnd != wireEnd || directEvents != wireEvents {
		t.Fatalf("direct run ended at %v after %d events, wire run at %v after %d",
			directEnd, directEvents, wireEnd, wireEvents)
	}
	// The program must actually exercise both outcomes and take time.
	if failed != 8 || wireEnd <= 0 {
		t.Fatalf("%d failed calls (want 8), end time %v", failed, wireEnd)
	}
}
