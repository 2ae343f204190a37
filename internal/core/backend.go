package core

import (
	"fmt"

	"repro/internal/cuda"
	"repro/internal/devsched"
	"repro/internal/gpu"
	"repro/internal/packer"
	"repro/internal/rpcproto"
	"repro/internal/sim"
)

// stringsBackend is the Design III backend: one process per GPU, hosting a
// backend thread per connected application. All threads share the process's
// CUDA runtime (hence a single GPU context) through the Context Packer, and
// every thread is gated by the device scheduler's Dispatcher.
type stringsBackend struct {
	c     *Cluster
	gid   int
	rt    *cuda.Runtime
	pk    *packer.Packer
	sched *devsched.Scheduler
	conns *sim.Queue[*rpcproto.Conn]
	nexts int
}

// newStringsBackend spawns the backend daemon for the device with the given
// GID, on the device's environment kernel.
func newStringsBackend(c *Cluster, e *shardEnv, gid int) *stringsBackend {
	cudaCfg := c.cfg.CUDA
	if c.cfg.MemoryGuard {
		cudaCfg.BlockOnOOM = true
	}
	rt := cuda.NewRuntime(e.k, []*gpu.Device{c.devices[gid]}, cudaCfg)
	b := &stringsBackend{
		c:     c,
		gid:   gid,
		rt:    rt,
		pk:    packer.New(rt, c.cfg.Packer),
		sched: c.scheds[gid],
		conns: sim.NewQueue[*rpcproto.Conn](e.k),
	}
	b.pk.SetRecorder(e.rec, gid)
	e.k.Go(fmt.Sprintf("backend-%d", gid), b.acceptLoop)
	return b
}

// accept hands a new frontend connection to the daemon.
func (b *stringsBackend) accept(conn *rpcproto.Conn) { b.conns.Put(conn) }

// acceptLoop spawns one backend thread per accepted connection.
func (b *stringsBackend) acceptLoop(p *sim.Proc) {
	for {
		conn := b.conns.Get(p)
		b.nexts++
		gid, n := b.gid, b.nexts
		ep := conn.B()
		p.Kernel().GoNamed(func() string { return fmt.Sprintf("bt-%d-%d", gid, n) },
			func(tp *sim.Proc) { b.serve(tp, ep) })
	}
}

// serve is one backend thread: it performs the registration handshake with
// the Request Manager, then executes the application's marshalled calls
// through the Context Packer under the Dispatcher's wake/sleep gating.
func (b *stringsBackend) serve(p *sim.Proc, ep rpcproto.Endpoint) {
	first, ok := ep.Recv(p).(*rpcproto.Call)
	if !ok || first.ID != cuda.CallSetDevice {
		reply := &rpcproto.Reply{}
		reply.SetError(cuda.ErrInvalidValue)
		ep.Send(p, reply, 0)
		return
	}
	if b.c.faultGate(p, b.gid) {
		// The backend died before (or while) the registration was served:
		// the daemon is gone, so the handshake reply never leaves the node.
		return
	}
	appID := int(first.AppID)
	pool := ep.Pool()
	held := 0
	entry := b.sched.Register(appID, first.TenantID, int(first.Weight),
		first.KernelName, func() int { return held + ep.InboxLen() })
	port, err := b.pk.Open(p, appID, first.TenantID)
	reply := pool.GetReply()
	reply.Seq = first.Seq
	reply.SetError(err)
	ep.Send(p, reply, 0)
	if err != nil {
		b.sched.Unregister(appID)
		return
	}
	port.SetPool(pool)
	for {
		call, ok := ep.Recv(p).(*rpcproto.Call)
		if !ok {
			continue
		}
		if b.c.faultGate(p, b.gid) {
			// Killed: swallow the call and keep draining the inbox so
			// retransmissions die here instead of backing up the queue.
			continue
		}
		held = 1
		b.sched.SetPhaseEntry(entry, devsched.CallPhase(call))
		if devsched.GatesOnDispatch(call.ID) {
			b.sched.WaitTurn(p, entry)
		}
		t0 := p.Now()
		reply := port.Execute(call)
		b.c.degradePenalty(p, b.gid, p.Now()-t0)
		held = 0
		b.sched.SetPhaseEntry(entry, devsched.PhaseDFL)
		if b.c.gpuDown[b.gid] {
			// The kill landed while the call executed: the reply is lost
			// with the daemon.
			if call.ID == cuda.CallThreadExit {
				b.sched.Unregister(appID)
				return
			}
			pool.FreeReply(reply)
			continue
		}
		if call.ID == cuda.CallThreadExit {
			reply.Feedback = b.sched.Unregister(appID)
			ep.Send(p, reply, 0)
			return
		}
		if !call.NonBlocking {
			// Blocking round trip: the frontend owns both frames now and
			// recycles them when it issues its next call.
			ep.Send(p, reply, call.ReplyPayloadBytes())
			continue
		}
		// Non-blocking: the frontend forgot the call at issue and the reply
		// is suppressed, so this side recycles both.
		pool.FreeReply(reply)
		pool.FreeCall(call)
	}
}

// serveRainConn spawns a Rain (Design I) backend process for one
// application: a private CUDA runtime — and therefore a private GPU context
// — executing the application's calls verbatim: synchronous memcpys stay
// synchronous, device synchronizes stay device-wide, everything runs on the
// context's default stream. The per-device scheduler still gates
// submission, which is how TFS-Rain and LAS-Rain are realized. The process
// runs on the device's kernel and draws its sequence number from that
// kernel's application counter.
func (c *Cluster) serveRainConn(gid int, conn *rpcproto.Conn) {
	e := c.devEnv[gid]
	e.appSeq++
	seq := e.appSeq
	ep := conn.B()
	e.k.GoNamed(func() string { return fmt.Sprintf("rain-%d-%d", gid, seq) },
		func(p *sim.Proc) { c.rainServe(p, gid, ep) })
}

func (c *Cluster) rainServe(p *sim.Proc, gid int, ep rpcproto.Endpoint) {
	first, ok := ep.Recv(p).(*rpcproto.Call)
	if !ok || first.ID != cuda.CallSetDevice {
		reply := &rpcproto.Reply{}
		reply.SetError(cuda.ErrInvalidValue)
		ep.Send(p, reply, 0)
		return
	}
	if c.faultGate(p, gid) {
		return
	}
	appID := int(first.AppID)
	pool := ep.Pool()
	sched := c.scheds[gid]
	held := 0
	entry := sched.Register(appID, first.TenantID, int(first.Weight),
		first.KernelName, func() int { return held + ep.InboxLen() })

	// A fresh runtime per application: Rain's per-app backend process (on
	// whichever kernel this backend proc runs on).
	rt := cuda.NewRuntime(p.Kernel(), []*gpu.Device{c.devices[gid]}, c.cfg.CUDA)
	rt.SetOwner(appID)
	t := rt.NewThread(p, appID)
	reply := pool.GetReply()
	reply.Seq = first.Seq
	reply.SetError(t.SetDevice(0))
	ep.Send(p, reply, 0)

	for {
		call, ok := ep.Recv(p).(*rpcproto.Call)
		if !ok {
			continue
		}
		if c.faultGate(p, gid) {
			continue
		}
		held = 1
		sched.SetPhaseEntry(entry, devsched.CallPhase(call))
		if devsched.GatesOnDispatch(call.ID) {
			sched.WaitTurn(p, entry)
		}
		t0 := p.Now()
		reply := c.rainExecute(t, call, pool)
		c.degradePenalty(p, gid, p.Now()-t0)
		held = 0
		sched.SetPhaseEntry(entry, devsched.PhaseDFL)
		if c.gpuDown[gid] {
			if call.ID == cuda.CallThreadExit {
				sched.Unregister(appID)
				return
			}
			pool.FreeReply(reply)
			continue
		}
		if call.ID == cuda.CallThreadExit {
			reply.Feedback = sched.Unregister(appID)
			ep.Send(p, reply, 0)
			return
		}
		if !call.NonBlocking {
			ep.Send(p, reply, call.ReplyPayloadBytes())
			continue
		}
		// Non-blocking round trips are recycled on this side (see serve).
		pool.FreeReply(reply)
		pool.FreeCall(call)
	}
}

// rainExecute runs one call directly against the per-app runtime — no
// stream translation, no sync conversion, no pinned staging.
func (c *Cluster) rainExecute(t *cuda.Thread, call *rpcproto.Call, pool *rpcproto.Pool) *rpcproto.Reply {
	reply := pool.GetReply()
	reply.Seq = call.Seq
	ptr := cuda.Ptr{Dev: int(call.PtrDev), ID: call.PtrID, Size: call.PtrSize}
	switch call.ID {
	case cuda.CallDeviceCount:
		reply.Count = int32(t.DeviceCount())
	case cuda.CallMalloc:
		p, err := t.Malloc(call.Bytes)
		if err != nil {
			reply.SetError(err)
			break
		}
		reply.PtrID, reply.PtrSize, reply.PtrDev = p.ID, p.Size, int32(p.Dev)
	case cuda.CallFree:
		reply.SetError(t.Free(ptr))
	case cuda.CallMemcpy:
		reply.SetError(t.Memcpy(call.Dir, ptr, call.Bytes))
	case cuda.CallMemcpyAsync:
		reply.SetError(t.MemcpyAsync(call.Dir, ptr, call.Bytes, cuda.StreamID(call.Stream)))
	case cuda.CallLaunch:
		reply.SetError(t.Launch(cuda.Kernel{
			Name:       call.KernelName,
			Compute:    call.Compute,
			MemTraffic: call.MemTraffic,
			Occupancy:  call.Occupancy,
		}, cuda.StreamID(call.Stream)))
	case cuda.CallStreamCreate:
		s, err := t.StreamCreate()
		if err != nil {
			reply.SetError(err)
			break
		}
		reply.Stream = int32(s)
	case cuda.CallStreamSync:
		reply.SetError(t.StreamSynchronize(cuda.StreamID(call.Stream)))
	case cuda.CallStreamDestroy:
		reply.SetError(t.StreamDestroy(cuda.StreamID(call.Stream)))
	case cuda.CallEventCreate:
		e, err := t.EventCreate()
		if err != nil {
			reply.SetError(err)
			break
		}
		reply.Event = int32(e)
	case cuda.CallEventRecord:
		reply.SetError(t.EventRecord(cuda.EventID(call.Event), cuda.StreamID(call.Stream)))
	case cuda.CallEventSync:
		reply.SetError(t.EventSynchronize(cuda.EventID(call.Event)))
	case cuda.CallEventElapsed:
		d, err := t.EventElapsed(cuda.EventID(call.Event), cuda.EventID(call.Event2))
		if err != nil {
			reply.SetError(err)
			break
		}
		reply.Elapsed = int64(d)
	case cuda.CallEventDestroy:
		reply.SetError(t.EventDestroy(cuda.EventID(call.Event)))
	case cuda.CallDeviceSync:
		reply.SetError(t.DeviceSynchronize())
	case cuda.CallThreadExit:
		reply.SetError(t.ThreadExit())
	default:
		reply.SetError(cuda.ErrNotImplemented)
	}
	return reply
}
