package rpcproto

import (
	"reflect"
	"testing"

	"repro/internal/cuda"
	"repro/internal/gpu"
	"repro/internal/sim"
)

// TestExecuteConformance pins the executor opcode by opcode: SetOp then Op
// gives back an op with every operand set, Execute leaves the frame as it was
// and answers its sequence number (an unknown opcode with ErrNotImplemented),
// and SetRet carries every field of a Ret, and the error, into the reply.
func TestExecuteConformance(t *testing.T) {
	full := cuda.Op{
		Dev: 1, Dir: cuda.D2H, Ptr: cuda.Ptr{Dev: 2, ID: 21, Size: 8192}, Bytes: 4096,
		Kernel: cuda.Kernel{Name: "k", Compute: 1.5, MemTraffic: 2.5, Occupancy: 0.5},
		Stream: 3, Event: 11, Event2: 12,
	}
	k := sim.NewKernel(1)
	defer k.Close()
	rt := cuda.NewRuntime(k, []*gpu.Device{gpu.NewDevice(k, gpu.TeslaC2050, 0)}, cuda.Config{})
	for id := cuda.CallSetDevice; id <= cuda.CallEventDestroy+1; id++ {
		op := full
		op.ID = id
		call := Call{Seq: 9}
		call.SetOp(&op)
		if got := call.Op(); got != op || !populated(reflect.ValueOf(got)) {
			t.Errorf("%v: SetOp then Op gave %+v, want %+v", id, got, op)
		}
		sent := call
		var reply Reply
		Execute(rt.NewThread(nil, 3), &call, &reply)
		if call != sent || reply.Seq != 9 {
			t.Errorf("%v: Execute rewrote the frame to %+v, or answered seq %d", id, call, reply.Seq)
		}
		if id > cuda.CallEventDestroy && reply.AsError() != cuda.ErrNotImplemented {
			t.Errorf("%v: reply %+v, want %v", id, reply, cuda.ErrNotImplemented)
		}
	}

	ret := cuda.Ret{Ptr: cuda.Ptr{Dev: 2, ID: 41, Size: 4096}, Stream: 5, Event: 6, Elapsed: 77, Count: 3}
	if !populated(reflect.ValueOf(ret)) {
		t.Fatal("the Ret under test leaves a field zero")
	}
	var r Reply
	r.SetRet(ret, cuda.ErrInvalidValue)
	want := Reply{PtrID: 41, PtrSize: 4096, PtrDev: 2, Stream: 5, Event: 6, Elapsed: 77, Count: 3,
		Err: cuda.ErrInvalidValue.Error()}
	if !reflect.DeepEqual(r, want) {
		t.Errorf("SetRet: reply %+v, want %+v", r, want)
	}
	r.SetRet(cuda.Ret{}, nil)
	if !reflect.DeepEqual(r, Reply{}) {
		t.Errorf("SetRet of nothing: reply %+v, want it empty", r)
	}
}

// populated reports whether no field of v, a struct, or of the structs in it
// is zero.
func populated(v reflect.Value) bool {
	if v.Kind() != reflect.Struct {
		return !v.IsZero()
	}
	for i := 0; i < v.NumField(); i++ {
		if !populated(v.Field(i)) {
			return false
		}
	}
	return true
}

// script is a CUDA program exercising every blocking and non-blocking call
// class: allocation, sync and async copies on two streams, kernels, events,
// errors, teardown.
func script(t *cuda.Thread) []Reply {
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

// directScript is script written as direct calls on the thread's methods: what
// an application linked against the bare runtime would do.
func directScript(t *cuda.Thread) []Reply {
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
	run := func(prog func(*cuda.Thread) []Reply) (replies []Reply, end sim.Time, events uint64) {
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
