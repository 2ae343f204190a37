package interpose

import (
	"errors"
	"slices"
	"testing"

	"repro/internal/balancer"
	"repro/internal/cuda"
	"repro/internal/rpcproto"
	"repro/internal/sim"
)

// scriptedBackend is one fake backend daemon whose replies can be swallowed
// on demand — the deterministic stand-in for a crashed or wedged node.
type scriptedBackend struct {
	conn     *rpcproto.Conn
	received []*rpcproto.Call

	// swallow, when it returns true, drops the call without a reply (the
	// interposer sees only a timeout).
	swallow func(c *rpcproto.Call) bool

	nextPtr    int64
	nextStream int32
	nextEvent  int32
}

func startScriptedBackend(k *sim.Kernel, name string) *scriptedBackend {
	b := &scriptedBackend{conn: rpcproto.NewConn(k, rpcproto.LinkSpec{})}
	k.Go(name, func(p *sim.Proc) {
		ep := b.conn.B()
		for {
			call := ep.Recv(p).(*rpcproto.Call)
			cp := *call
			b.received = append(b.received, &cp)
			if b.swallow != nil && b.swallow(call) {
				continue
			}
			reply := &rpcproto.Reply{Seq: call.Seq}
			switch call.ID {
			case cuda.CallMalloc:
				b.nextPtr++
				reply.PtrID, reply.PtrSize = 1000+b.nextPtr, call.Bytes
			case cuda.CallStreamCreate:
				b.nextStream++
				reply.Stream = 500 + b.nextStream
			case cuda.CallEventCreate:
				b.nextEvent++
				reply.Event = 700 + b.nextEvent
			case cuda.CallDeviceCount:
				reply.Count = 4
			case cuda.CallThreadExit:
				reply.Feedback = &rpcproto.Feedback{Kind: call.KernelName}
			}
			if !call.NonBlocking {
				ep.Send(p, reply, 0)
			}
			if call.ID == cuda.CallThreadExit {
				return
			}
		}
	})
	return b
}

// failFabric routes the interposer across scripted backends indexed by GID
// and answers failure reports with a scripted health sequence.
type failFabric struct {
	backends []*scriptedBackend
	gids     []balancer.GID // SelectGPU answers, last repeats
	selects  int

	health    func(n int) balancer.Health // nth failure report (1-based)
	failures  int
	recovered int
	released  int
}

func (f *failFabric) SelectGPU(req balancer.Request, gid *balancer.GID, done func()) {
	i := f.selects
	if i >= len(f.gids) {
		i = len(f.gids) - 1
	}
	f.selects++
	*gid = f.gids[i]
	done()
}
func (f *failFabric) SelectHop() sim.Time { return 0 }
func (f *failFabric) ConnectBackend(gid balancer.GID) rpcproto.Endpoint {
	return f.backends[gid].conn.A()
}
func (f *failFabric) ReportFeedback(gid balancer.GID, kind string, fb *rpcproto.Feedback) {
	f.released++
}
func (f *failFabric) ReportFailure(gid balancer.GID, h *balancer.Health, done func()) {
	f.failures++
	*h = balancer.Suspect
	if f.health != nil {
		*h = f.health(f.failures)
	}
	done()
}
func (f *failFabric) ReportRecovered(gid balancer.GID) { f.recovered++ }
func (f *failFabric) PoolSize() int                    { return len(f.backends) }

// driveRecovery makes ops on an interposer with recovery armed over n
// scripted backends; setup runs first, and check sees each call's outcome.
func driveRecovery(n int, gids []balancer.GID, setup func(f *failFabric, ip *Interposer), ops []cuda.Op,
	check func(f *failFabric, ip *Interposer, i int, r cuda.Ret, err error)) *failFabric {
	k := sim.NewKernel(1)
	f := &failFabric{gids: gids}
	for i := 0; i < n; i++ {
		f.backends = append(f.backends, startScriptedBackend(k, "backend"))
	}
	var ip Interposer
	ip.Init(f, k, 9, 3, 2, "MC", 0, true, 10*sim.Millisecond)
	if setup != nil {
		setup(f, &ip)
	}
	run(k, &ip, ops, func(i int, r cuda.Ret, err error) { check(f, &ip, i, r, err) })
	return f
}

var deviceSync = cuda.Op{ID: cuda.CallDeviceSync}

func TestRecoveryDisabledIsUntouched(t *testing.T) {
	f := driveRecovery(1, []balancer.GID{0}, func(f *failFabric, ip *Interposer) {
		ip.Init(f, ip.k, 9, 3, 2, "MC", 0, true, 0) // disarm again
	}, []cuda.Op{setDevice, deviceSync}, func(f *failFabric, ip *Interposer, i int, r cuda.Ret, err error) {
		if i == 1 && err != nil {
			t.Errorf("DeviceSynchronize: %v", err)
		}
		if ip.rec.timeouts != 0 || ip.rec.failovers != 0 || ip.Disrupted() {
			t.Errorf("disabled recovery accumulated state: %d/%d", ip.rec.timeouts, ip.rec.failovers)
		}
	})
	if f.failures != 0 || f.recovered != 0 {
		t.Fatalf("disabled recovery reported health: %d failures", f.failures)
	}
}

func TestTimeoutRetrySucceeds(t *testing.T) {
	f := driveRecovery(1, []balancer.GID{0}, func(f *failFabric, ip *Interposer) {
		swallowed := false
		f.backends[0].swallow = func(c *rpcproto.Call) bool {
			if c.ID == cuda.CallDeviceSync && !swallowed {
				swallowed = true
				return true
			}
			return false
		}
	}, []cuda.Op{setDevice, deviceSync}, func(f *failFabric, ip *Interposer, i int, r cuda.Ret, err error) {
		if i == 0 {
			return
		}
		if err != nil {
			t.Errorf("DeviceSynchronize after retry: %v", err)
		}
		if ip.rec.timeouts != 1 {
			t.Errorf("Timeouts = %d, want 1", ip.rec.timeouts)
		}
		if !ip.Disrupted() {
			t.Error("Disrupted = false after a timeout")
		}
	})
	if f.failures != 1 {
		t.Fatalf("failure reports = %d, want 1", f.failures)
	}
	if f.recovered != 1 {
		t.Fatalf("recovery reports = %d, want 1 (the retried call succeeded)", f.recovered)
	}
	// The wire saw the call twice: the swallowed original and the retry.
	counts := 0
	for _, c := range f.backends[0].received {
		if c.ID == cuda.CallDeviceSync {
			counts++
		}
	}
	if counts != 2 {
		t.Fatalf("backend saw %d DeviceSync sends, want 2", counts)
	}
}

func TestNonRetryableTimeoutSurfacesBackendLost(t *testing.T) {
	driveRecovery(1, []balancer.GID{0}, func(f *failFabric, ip *Interposer) {
		f.backends[0].swallow = func(c *rpcproto.Call) bool { return c.ID == cuda.CallMalloc }
	}, []cuda.Op{setDevice, {ID: cuda.CallMalloc, Bytes: 100}}, func(f *failFabric, ip *Interposer, i int, r cuda.Ret, err error) {
		if i == 1 && !errors.Is(err, cuda.ErrBackendLost) {
			t.Errorf("Malloc on a silent backend = %v, want ErrBackendLost", err)
		}
	})
}

func TestRetryBudgetExhaustionSurfacesBackendLost(t *testing.T) {
	f := driveRecovery(1, []balancer.GID{0}, nil, []cuda.Op{setDevice, deviceSync},
		func(f *failFabric, ip *Interposer, i int, r cuda.Ret, err error) {
			if i == 0 {
				f.backends[0].swallow = func(c *rpcproto.Call) bool { return true }
				return
			}
			if !errors.Is(err, cuda.ErrBackendLost) {
				t.Errorf("sync against a dead-silent backend = %v, want ErrBackendLost", err)
			}
		})
	// Original + maxRetries retransmits, each reported to the detector.
	if f.failures != 4 {
		t.Fatalf("failure reports = %d, want 4 (1 + maxRetries)", f.failures)
	}
}

// TestFailoverReplaysStateOnReplacement: when backend 0 dies the interposer
// registers on backend 1 and replays its streams, allocations and events
// there, each table in ascending virtual-id order, so the replacement hands
// out its ids in the order the application first got them; later calls on
// the client-visible handles carry the replacement's ids. The application's
// handles are virtual, numbered from 1 in the order it got them.
func TestFailoverReplaysStateOnReplacement(t *testing.T) {
	const ptrs, streams, events = 8, 3, 3
	ops := []cuda.Op{setDevice}
	for i := range ptrs {
		ops = append(ops, cuda.Op{ID: cuda.CallMalloc, Bytes: int64(4096 * (i + 1))})
	}
	for range streams {
		ops = append(ops, cuda.Op{ID: cuda.CallStreamCreate})
	}
	for range events {
		ops = append(ops, cuda.Op{ID: cuda.CallEventCreate})
	}
	died := len(ops)
	ops = append(ops, deviceSync)
	ptr := func(i int) cuda.Ptr { return cuda.Ptr{ID: int64(i + 1), Size: int64(4096 * (i + 1))} }
	for i := range ptrs {
		ops = append(ops, cuda.Op{ID: cuda.CallMemcpyAsync, Dir: cuda.H2D, Ptr: ptr(i), Bytes: 128, Stream: cuda.StreamID(i%streams + 1)})
	}
	for i := range events {
		ops = append(ops, cuda.Op{ID: cuda.CallEventRecord, Event: cuda.EventID(i + 1), Stream: cuda.StreamID(i + 1)})
	}
	for i := range ptrs {
		ops = append(ops, cuda.Op{ID: cuda.CallFree, Ptr: ptr(i)})
	}
	f := driveRecovery(2, []balancer.GID{0, 1}, nil, ops, func(f *failFabric, ip *Interposer, i int, r cuda.Ret, err error) {
		if err != nil {
			t.Fatalf("%v (call %d): %v", ops[i].ID, i, err)
		}
		want := cuda.Ret{}
		switch {
		case i == 0:
		case i <= ptrs:
			want.Ptr = ptr(i - 1)
		case i <= ptrs+streams:
			want.Stream = cuda.StreamID(i - ptrs)
		case i < died:
			want.Event = cuda.EventID(i - ptrs - streams)
		}
		if r != want {
			t.Fatalf("%v (call %d) returned %+v, want %+v", ops[i].ID, i, r, want)
		}
		switch i {
		case died - 1:
			// Backend 0 dies: swallow everything; one failure → Dead.
			f.backends[0].swallow = func(c *rpcproto.Call) bool { return true }
			f.health = func(n int) balancer.Health { return balancer.Dead }
		case died:
			if ip.rec.failovers != 1 || ip.gid != 1 {
				t.Errorf("%d failovers, now on device %d; want 1, on device 1", ip.rec.failovers, ip.gid)
			}
		}
	})
	// Backend 1 numbers pointers from 1001, streams from 501 and events from
	// 701, in the order it is asked for them.
	type wire struct {
		id     cuda.CallID
		bytes  int64 // of a Malloc
		ptr    int64
		stream int32
		event  int32
	}
	want := []wire{{id: cuda.CallSetDevice}}
	for range streams {
		want = append(want, wire{id: cuda.CallStreamCreate})
	}
	for i := range ptrs {
		want = append(want, wire{id: cuda.CallMalloc, bytes: int64(4096 * (i + 1))})
	}
	for range events {
		want = append(want, wire{id: cuda.CallEventCreate})
	}
	want = append(want, wire{id: cuda.CallDeviceSync})
	for i := range ptrs {
		want = append(want, wire{id: cuda.CallMemcpyAsync, ptr: 1001 + int64(i), stream: 501 + int32(i%streams)})
	}
	for i := range events {
		want = append(want, wire{id: cuda.CallEventRecord, stream: 501 + int32(i), event: 701 + int32(i)})
	}
	for i := range ptrs {
		want = append(want, wire{id: cuda.CallFree, ptr: 1001 + int64(i)})
	}
	var got []wire
	for _, c := range f.backends[1].received {
		w := wire{id: c.ID, ptr: c.PtrID, stream: c.Stream, event: c.Event}
		if c.ID == cuda.CallMalloc {
			w.bytes = c.Bytes
		}
		got = append(got, w)
	}
	if !slices.Equal(got, want) {
		t.Fatalf("backend 1 received\n%+v\nwant, replays in ascending virtual-id order,\n%+v", got, want)
	}
	if f.released == 0 {
		t.Fatal("failover never released the dead binding")
	}
}
