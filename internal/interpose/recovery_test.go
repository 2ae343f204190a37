package interpose

import (
	"errors"
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

func (f *failFabric) SelectGPU(req balancer.Request, gid *balancer.GID, done *sim.Event) {
	i := f.selects
	if i >= len(f.gids) {
		i = len(f.gids) - 1
	}
	f.selects++
	*gid = f.gids[i]
	done.Fire()
}
func (f *failFabric) SelectHop() sim.Time { return 0 }
func (f *failFabric) ConnectBackend(p *sim.Proc, gid balancer.GID, fromNode int) rpcproto.Endpoint {
	return f.backends[gid].conn.A()
}
func (f *failFabric) ReportFeedback(gid balancer.GID, kind string, fb *rpcproto.Feedback) {
	f.released++
}
func (f *failFabric) ReportFailure(p *sim.Proc, gid balancer.GID) balancer.Health {
	f.failures++
	if f.health == nil {
		return balancer.Suspect
	}
	return f.health(f.failures)
}
func (f *failFabric) ReportRecovered(gid balancer.GID) { f.recovered++ }
func (f *failFabric) PoolSize() int                    { return len(f.backends) }

// driveRecovery runs fn in a kernel against n scripted backends with
// recovery armed.
func driveRecovery(t *testing.T, n int, gids []balancer.GID, fn func(f *failFabric, ip *Interposer)) *failFabric {
	t.Helper()
	k := sim.NewKernel(1)
	f := &failFabric{gids: gids}
	for i := 0; i < n; i++ {
		f.backends = append(f.backends, startScriptedBackend(k, "backend"))
	}
	k.Go("app", func(p *sim.Proc) {
		ip := New(f, p, 9, 3, 2, "MC", 0, true)
		ip.SetRecovery(Recovery{CallTimeout: 10 * sim.Millisecond})
		fn(f, ip)
	})
	k.Run()
	return f
}

func TestRecoveryDisabledIsUntouched(t *testing.T) {
	f := driveRecovery(t, 1, []balancer.GID{0}, func(f *failFabric, ip *Interposer) {
		ip.SetRecovery(Recovery{}) // disarm again
		ip.SetDevice(0)
		if err := ip.DeviceSynchronize(); err != nil {
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
	f := driveRecovery(t, 1, []balancer.GID{0}, func(f *failFabric, ip *Interposer) {
		swallowed := false
		f.backends[0].swallow = func(c *rpcproto.Call) bool {
			if c.ID == cuda.CallDeviceSync && !swallowed {
				swallowed = true
				return true
			}
			return false
		}
		ip.SetDevice(0)
		if err := ip.DeviceSynchronize(); err != nil {
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
	driveRecovery(t, 1, []balancer.GID{0}, func(f *failFabric, ip *Interposer) {
		f.backends[0].swallow = func(c *rpcproto.Call) bool { return c.ID == cuda.CallMalloc }
		ip.SetDevice(0)
		if _, err := ip.Malloc(100); !errors.Is(err, cuda.ErrBackendLost) {
			t.Errorf("Malloc on a silent backend = %v, want ErrBackendLost", err)
		}
	})
}

func TestRetryBudgetExhaustionSurfacesBackendLost(t *testing.T) {
	f := driveRecovery(t, 1, []balancer.GID{0}, func(f *failFabric, ip *Interposer) {
		ip.SetDevice(0)
		f.backends[0].swallow = func(c *rpcproto.Call) bool { return true }
		if err := ip.DeviceSynchronize(); !errors.Is(err, cuda.ErrBackendLost) {
			t.Errorf("sync against a dead-silent backend = %v, want ErrBackendLost", err)
		}
	})
	// Original + maxRetries retransmits, each reported to the detector.
	if f.failures != 4 {
		t.Fatalf("failure reports = %d, want 4 (1 + maxRetries)", f.failures)
	}
}

func TestFailoverReplaysStateOnReplacement(t *testing.T) {
	f := driveRecovery(t, 2, []balancer.GID{0, 1}, func(f *failFabric, ip *Interposer) {
		ip.SetDevice(0)
		ptr, err := ip.Malloc(4096)
		if err != nil {
			t.Fatalf("Malloc: %v", err)
		}
		st, err := ip.StreamCreate()
		if err != nil {
			t.Fatalf("StreamCreate: %v", err)
		}
		ev, err := ip.EventCreate()
		if err != nil {
			t.Fatalf("EventCreate: %v", err)
		}
		// Backend 0 dies: swallow everything; one failure → Dead.
		f.backends[0].swallow = func(c *rpcproto.Call) bool { return true }
		f.health = func(n int) balancer.Health { return balancer.Dead }
		if err := ip.DeviceSynchronize(); err != nil {
			t.Errorf("DeviceSynchronize after failover: %v", err)
		}
		if ip.rec.failovers != 1 {
			t.Errorf("Failovers = %d, want 1", ip.rec.failovers)
		}
		if ip.gid != 1 {
			t.Errorf("Device after failover = %d, want 1", ip.gid)
		}
		// Client-visible handles survived the failover; the wire calls below
		// must carry backend 1's ids.
		if err := ip.MemcpyAsync(cuda.H2D, ptr, 128, st); err != nil {
			t.Errorf("MemcpyAsync on replayed handles: %v", err)
		}
		if err := ip.EventRecord(ev, st); err != nil {
			t.Errorf("EventRecord on replayed handles: %v", err)
		}
		if err := ip.Free(ptr); err != nil {
			t.Errorf("Free of replayed ptr: %v", err)
		}
	})
	b1 := f.backends[1]
	var ids []cuda.CallID
	for _, c := range b1.received {
		ids = append(ids, c.ID)
	}
	// Rebind: register, replay stream, allocation and event; then the
	// pending DeviceCount, then the post-failover traffic.
	want := []cuda.CallID{cuda.CallSetDevice, cuda.CallStreamCreate, cuda.CallMalloc,
		cuda.CallEventCreate, cuda.CallDeviceSync, cuda.CallMemcpyAsync,
		cuda.CallEventRecord, cuda.CallFree}
	if len(ids) != len(want) {
		t.Fatalf("backend 1 call sequence = %v, want %v", ids, want)
	}
	for i := range want {
		if ids[i] != want[i] {
			t.Fatalf("backend 1 call sequence = %v, want %v", ids, want)
		}
	}
	// The replayed Malloc preserved the size, and later calls use the
	// replacement's handles (backend 1 ids start at 1001/501/701).
	for _, c := range b1.received {
		switch c.ID {
		case cuda.CallMalloc:
			if c.Bytes != 4096 {
				t.Fatalf("replayed Malloc bytes = %d, want 4096", c.Bytes)
			}
		case cuda.CallMemcpyAsync:
			if c.PtrID != 1001 || c.Stream != 501 {
				t.Fatalf("MemcpyAsync used stale ids: ptr=%d stream=%d", c.PtrID, c.Stream)
			}
		case cuda.CallEventRecord:
			if c.Event != 701 {
				t.Fatalf("EventRecord used stale event id %d", c.Event)
			}
		case cuda.CallFree:
			if c.PtrID != 1001 {
				t.Fatalf("Free used stale ptr id %d", c.PtrID)
			}
		}
	}
	if f.released == 0 {
		t.Fatal("failover never released the dead binding")
	}
}
