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
	pk    *packer.Packer
	conns *sim.Queue[*rpcproto.Conn]
	nexts int
}

// newStringsBackend spawns the backend daemon for the device with the given
// GID, on the device's environment kernel. Its packer runs with the zero
// packer.Config, so pinned staging costs nothing (EXPERIMENTS.md, known
// divergence 5).
func newStringsBackend(c *Cluster, e *shardEnv, gid int) *stringsBackend {
	rt := cuda.NewRuntime(e.k, []*gpu.Device{c.devices[gid]}, c.cudaConfig())
	b := &stringsBackend{
		c:     c,
		gid:   gid,
		pk:    packer.New(rt, packer.Config{}),
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
			func(tp *sim.Proc) { b.c.serveApp(tp, gid, ep, b) })
	}
}

// openApp is the Strings half of serveApp: the application's lane is a
// Context Packer port on the backend process's shared runtime, so its calls
// are translated (AST/SST/MOT) before they execute.
func (b *stringsBackend) openApp(p *sim.Proc, _ int, first *rpcproto.Call, pool *rpcproto.Pool) (appPort, error) {
	port, err := b.pk.Open(p, int(first.AppID), first.TenantID)
	if err != nil {
		return nil, err
	}
	port.SetPool(pool)
	return port, nil
}

// serveRainConn spawns a Rain (Design I) backend process for one
// application. The process runs on the device's kernel and draws its
// sequence number from that kernel's application counter.
func (c *Cluster) serveRainConn(gid int, conn *rpcproto.Conn) {
	e := c.devEnv[gid]
	e.appSeq++
	seq := e.appSeq
	ep := conn.B()
	e.k.GoNamed(func() string { return fmt.Sprintf("rain-%d-%d", gid, seq) },
		func(p *sim.Proc) { c.serveApp(p, gid, ep, c) })
}

// openApp is the Rain half of serveApp: a fresh CUDA runtime per application
// — and therefore a private GPU context — executing the application's calls
// verbatim: synchronous memcpys stay synchronous, device synchronizes stay
// device-wide, everything runs on the context's default stream. The
// per-device scheduler still gates submission, which is how TFS-Rain and
// LAS-Rain are realized.
func (c *Cluster) openApp(p *sim.Proc, gid int, first *rpcproto.Call, pool *rpcproto.Pool) (appPort, error) {
	appID := int(first.AppID)
	// The process sees one device: a capped view of the pool's slice, not a
	// fresh one-element slice per application.
	rt := cuda.NewRuntime(p.Kernel(), c.devices[gid:gid+1:gid+1], c.cudaConfig())
	rt.SetOwner(appID)
	rp := &rainPort{t: *rt.NewThread(p, appID), pool: pool}
	return rp, rp.t.SetDevice(0)
}

// rainPort is a Rain application's lane: its private thread behind the
// shared verbatim executor. The thread is held by value so that the lane is
// one object per application, not two.
type rainPort struct {
	t    cuda.Thread
	pool *rpcproto.Pool
}

func (rp *rainPort) Execute(call *rpcproto.Call) *rpcproto.Reply {
	reply := rp.pool.GetReply()
	rpcproto.Execute(&rp.t, call, reply)
	return reply
}

// appPort is one application's execution lane at a backend: it turns a
// marshalled call into its reply, blocking the serving process for as long
// as the call takes.
type appPort interface {
	Execute(call *rpcproto.Call) *rpcproto.Reply
}

// appHost is what differs between the designs: how an application that
// completed the handshake gets its lane on device gid.
type appHost interface {
	openApp(p *sim.Proc, gid int, first *rpcproto.Call, pool *rpcproto.Pool) (appPort, error)
}

// serveApp is one application's backend thread (Strings) or backend process
// (Rain): it performs the registration handshake with the Request Manager,
// opens the application's lane on host, then executes the application's
// marshalled calls under the Dispatcher's wake/sleep gating.
func (c *Cluster) serveApp(p *sim.Proc, gid int, ep rpcproto.Endpoint, host appHost) {
	first, ok := ep.Recv(p).(*rpcproto.Call)
	if !ok || first.ID != cuda.CallSetDevice {
		reply := &rpcproto.Reply{}
		reply.SetError(cuda.ErrInvalidValue)
		ep.Send(p, reply, 0)
		return
	}
	if c.faultGate(p, gid) {
		// The backend died before (or while) the registration was served:
		// the daemon is gone, so the handshake reply never leaves the node.
		return
	}
	appID := int(first.AppID)
	pool := ep.Pool()
	sched := c.scheds[gid]
	held := 0
	entry := sched.Register(appID, first.TenantID, int(first.Weight),
		first.KernelName, func() int { return held + ep.InboxLen() })
	port, err := host.openApp(p, gid, first, pool)
	reply := pool.GetReply()
	reply.Seq = first.Seq
	reply.SetError(err)
	ep.Send(p, reply, 0)
	if err != nil {
		sched.Unregister(appID)
		return
	}
	for {
		call, ok := ep.Recv(p).(*rpcproto.Call)
		if !ok {
			continue
		}
		if c.faultGate(p, gid) {
			// Killed: swallow the call and keep draining the inbox so
			// retransmissions die here instead of backing up the queue.
			continue
		}
		held = 1
		sched.SetPhaseEntry(entry, devsched.CallPhase(call))
		if devsched.GatesOnDispatch(call.ID) {
			sched.WaitTurn(p, entry)
		}
		t0 := p.Now()
		reply := port.Execute(call)
		c.degradePenalty(p, gid, p.Now()-t0)
		held = 0
		sched.SetPhaseEntry(entry, devsched.PhaseDFL)
		if c.gpuDown[gid] {
			// The kill landed while the call executed: the reply is lost
			// with the daemon.
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
