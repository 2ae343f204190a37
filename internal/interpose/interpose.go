// Package interpose implements the Strings frontend: the CUDA-runtime
// interposer library that dynamically links with an application (Figure 3 of
// the paper). It intercepts every CUDA runtime call, overrides the
// application's device selection through the GPU Affinity Mapper, marshals
// calls into RPC packets for the backend daemon owning the chosen GPU, and
// applies the paper's asynchrony optimization: calls without output
// parameters (kernel launches, host-to-device copies, frees) are issued as
// non-blocking RPCs so the application's CPU component runs ahead of the
// runtime layer. The application's host threads are daemons that drive the
// interposer as a cuda.Stepper.
package interpose

import (
	"fmt"

	"repro/internal/balancer"
	"repro/internal/cuda"
	"repro/internal/rpcproto"
	"repro/internal/sim"
	"repro/internal/trace"
)

// Fabric is what the interposer needs from the hosting Strings/Rain
// runtime: the affinity-mapper RPC, backend connections, and the feedback
// relay.
type Fabric interface {
	// SelectGPU posts the device-selection RPC to the workload balancer
	// without blocking: done is called once the verdict is in *gid. The caller
	// waits out SelectHop before the request and again after the verdict.
	SelectGPU(req balancer.Request, gid *balancer.GID, done func())
	// SelectHop is the link a selection's caller waits out itself, each way:
	// the local link on the mapper's node, zero elsewhere, where the relay
	// pays the remote link.
	SelectHop() sim.Time
	// ConnectBackend opens an RPC connection from the application's node to
	// the backend daemon serving gid and returns the frontend endpoint.
	ConnectBackend(gid balancer.GID) rpcproto.Endpoint
	// ReportFeedback relays a Feedback Engine report (piggybacked on the
	// cudaThreadExit reply) to the affinity mapper and releases the
	// binding.
	ReportFeedback(gid balancer.GID, kind string, fb *rpcproto.Feedback)
	// ReportFailure posts one failed call against gid to the mapper's failure
	// detector without blocking: done is called once the row's resulting
	// health is in *h.
	ReportFailure(gid balancer.GID, h *balancer.Health, done func())
	// ReportRecovered records a successful call against a previously
	// suspect device (fire and forget).
	ReportRecovered(gid balancer.GID)
	// PoolSize returns the number of GPUs in the gPool.
	PoolSize() int
}

// MarshalOverhead is the CPU cost of interception, argument marshalling and
// RPC issue, charged per intercepted call.
const MarshalOverhead = 3 * sim.Microsecond

// Interposer is the interception layer of one application, a cuda.Stepper a
// daemon drives (step.go): each call is marshalled, sent to the backend that
// serves the application's GPU and, unless it has no output parameters,
// answered.
type Interposer struct {
	fab    Fabric
	k      *sim.Kernel
	appID  int
	tenant int64
	weight int
	kind   string
	node   int

	// async enables the paper's asynchrony optimization (non-blocking RPCs
	// for calls without output parameters). Strings turns it on; the Rain
	// baseline predates it and issues every RPC synchronously.
	async bool

	// timeout bounds each blocking call's wait for its reply and arms the
	// failure handling of recovery.go; 0 leaves both off.
	timeout sim.Time

	bound  bool
	gid    balancer.GID
	ep     rpcproto.Endpoint
	seq    uint64
	exited bool

	// LastFeedback is the report returned on ThreadExit (also relayed to
	// the mapper); experiments read it for per-tenant accounting. It points
	// at fb, where the report is copied out of the reply frame.
	LastFeedback *rpcproto.Feedback
	fb           rpcproto.Feedback

	// rec is the failure-handling state (see recovery.go), empty unless a
	// call timeout is set.
	rec recState

	// tr is the observability recorder (nil when tracing is off) and
	// reqSpan the enclosing request span every call span parents to.
	tr      *trace.Recorder
	reqSpan trace.SpanID

	// pool recycles Call/Reply frames through the frontend's kernel (nil —
	// allocate-and-drop — until bound, and always nil under a call timeout,
	// whose retransmits retain frames past the round trip).
	// lastCall/lastReply are the previous blocking round trip's frames:
	// by the time the frontend issues the next call the reply has been
	// fully consumed, so newCall recycles them one call late, and ThreadExit
	// the last pair.
	pool      *rpcproto.Pool
	lastCall  *rpcproto.Call
	lastReply *rpcproto.Reply

	// sel latches a selection's or a failure report's verdict, the latter
	// landing in health; fire is sel.Fire, bound once, for the fabric to
	// call with the verdict. Init keeps both for the next application.
	sel    sim.Event
	fire   func()
	health balancer.Health

	// The call in flight (step.go): the caller's op, the stage it is at, its
	// frame, the frame that goes out for it (send), its span and its outcome.
	at       stage
	op       *cuda.Op
	inflight *rpcproto.Call
	out      *rpcproto.Call
	blocking bool
	span     trace.SpanID
	ret      cuda.Ret
	err      error
}

// SetTrace installs the observability recorder and the enclosing request
// span. Call before the first CUDA call; a nil recorder disables tracing.
func (ip *Interposer) SetTrace(tr *trace.Recorder, reqSpan trace.SpanID) {
	ip.tr = tr
	ip.reqSpan = reqSpan
}

// Init makes *ip, held by value or reused after its application is done, the
// interposer of application appID on kernel k at the given node. kind is the
// application's class name, carried to the scheduler for SFT keying. async
// enables non-blocking RPCs for calls without output parameters (Strings);
// Rain's frontend passes false. A callTimeout above 0 arms recovery
// (recovery.go).
func (ip *Interposer) Init(fab Fabric, k *sim.Kernel, appID int, tenant int64, weight int, kind string, node int, async bool, callTimeout sim.Time) {
	*ip = Interposer{
		fab: fab, k: k, appID: appID, tenant: tenant, weight: weight,
		kind: kind, node: node, async: async, timeout: callTimeout, sel: ip.sel, fire: ip.fire,
	}
	if callTimeout > 0 {
		ip.rec.ptrs, ip.rec.streams, ip.rec.events = make(map[int64]*vPtr), make(map[int32]int32), make(map[int32]int32)
	}
}

// Cut readies *ip, whose application a simulation horizon cut off, for the
// next Init: it frees the frames only it holds — the last round trip's, and a
// call not yet posted — and keeps fire, bound to sel, which forgets the
// waiter the horizon left parked on it. A posted call is the backend's to
// free, or its inbox's.
func (ip *Interposer) Cut() {
	ip.freeLast()
	if ip.at == marshal || ip.at == paying || ip.at == posting {
		ip.pool.FreeCall(ip.inflight)
	}
	*ip = Interposer{fire: ip.fire}
}

// GID returns the gPool device the application was bound to.
func (ip *Interposer) GID() balancer.GID { return ip.gid }

// freeLast returns the previous blocking round trip's frames to the pool, once
// the reply has been consumed.
func (ip *Interposer) freeLast() {
	ip.pool.FreeCall(ip.lastCall)
	ip.pool.FreeReply(ip.lastReply)
	ip.lastCall, ip.lastReply = nil, nil
}

// newCall stamps a marshalled call with identity and sequence. It also
// recycles the previous blocking round trip's frames: issuing a new call
// proves the application has consumed the old reply.
func (ip *Interposer) newCall(id cuda.CallID) *rpcproto.Call {
	ip.freeLast()
	ip.seq++
	c := ip.pool.GetCall()
	c.ID = id
	c.Seq = ip.seq
	c.AppID = int64(ip.appID)
	c.TenantID = ip.tenant
	c.Weight = int32(ip.weight)
	return c
}

// beginCall opens the span of c's frontend-visible latency: a non-blocking
// call's closes at issue.
func (ip *Interposer) beginCall(c *rpcproto.Call) trace.SpanID {
	return ip.tr.Begin(trace.KCall, ip.reqSpan, ip.k.Now(), c.ID.String(),
		ip.appID, int(ip.gid), int64(c.Seq))
}

// send readies the frame that goes out for the call in flight and moves it on
// to paying: the call itself or, under a call timeout, wireCall's copy, whose
// virtual ids name the current backend's resources.
func (ip *Interposer) send() {
	ip.out, ip.at = ip.inflight, paying
	if ip.timeout > 0 {
		ip.out = ip.wireCall(ip.inflight)
	}
}

// await takes the reply to the frame last sent, waiting at most the call
// timeout if one is set: the reply with its error, an error for a stream that
// cannot carry it, neither once the timeout expired, or waiting while d's step
// ends in the wait. The backend answers each blocking call once, in order, so
// a reply older than the call comes first only from a retransmit: it is
// skipped once some call has timed out, and any other mismatch breaks the
// stream. The round trip's frames are the frontend's from here on; the next
// newCall recycles them once the reply has been consumed.
func (ip *Interposer) await(d *sim.Daemon) (r *rpcproto.Reply, waiting bool, err error) {
	for {
		var msg rpcproto.Msg
		ok, expired := false, false
		if ip.timeout > 0 {
			msg, ok, expired = ip.ep.TakeTimeout(d, ip.timeout)
		} else {
			msg, ok = ip.ep.Take(d)
		}
		if !ok {
			return nil, !expired, nil
		}
		r, isReply := msg.(*rpcproto.Reply)
		switch seq := ip.out.Seq; {
		case !isReply:
			return nil, false, fmt.Errorf("interpose: unexpected message %T", msg)
		case r.Seq == seq:
			ip.lastCall, ip.lastReply = ip.out, r
			return r, false, r.AsError()
		case r.Seq > seq || ip.rec.timeouts == 0:
			return nil, false, fmt.Errorf("interpose: reply %d does not answer call %d", r.Seq, seq)
		}
	}
}

// connect opens the connection to the bound GPU's backend. Retransmits retain
// frames past their round trip, so under a call timeout neither side recycles.
func (ip *Interposer) connect() {
	ip.ep = ip.fab.ConnectBackend(ip.gid)
	if ip.timeout > 0 {
		ip.ep.RetainFrames()
	}
	ip.pool = ip.ep.Pool()
}

// beginSelect opens the span of the device-selection round trip.
func (ip *Interposer) beginSelect() trace.SpanID {
	return ip.tr.Begin(trace.KSelect, ip.reqSpan, ip.k.Now(), "select-gpu", ip.appID, -1, 0)
}

// postSelect posts the selection request and returns the latch of its
// verdict, which lands in ip.gid.
func (ip *Interposer) postSelect() *sim.Event {
	ip.fab.SelectGPU(balancer.Request{
		AppID: ip.appID, Kind: ip.kind, Node: ip.node, Tenant: ip.tenant,
	}, &ip.gid, ip.latch())
	return &ip.sel
}

// latch readies the verdict latch for a request to the mapper and returns
// what fires it.
func (ip *Interposer) latch() func() {
	if ip.fire == nil {
		ip.fire = ip.sel.Fire
	}
	ip.sel.Reset()
	return ip.fire
}

// bind ends the selection span sel, connects to the chosen GPU's backend and
// returns the registration call: the balancer, not the application, picks
// the device.
func (ip *Interposer) bind(sel trace.SpanID) *rpcproto.Call {
	ip.tr.SetGID(sel, int(ip.gid))
	ip.tr.End(sel, ip.k.Now())
	ip.connect()
	ip.bound = true
	reg := ip.newCall(cuda.CallSetDevice)
	reg.Dev = int32(ip.gid)
	reg.KernelName = ip.kind // carries the class for RCB/SFT keying
	return reg
}

// marshal stamps op's call and reports whether the frontend waits for its
// reply. Calls without output parameters ride the non-blocking path: frees,
// launches, asynchronous copies, event records and destroys, and
// host-to-device copies, which carry the buffer with the request (the MOT
// makes them asynchronous at the backend); a device-to-host copy must return
// data, so it blocks.
func (ip *Interposer) marshal(op *cuda.Op) (*rpcproto.Call, bool) {
	c := ip.newCall(op.ID)
	c.SetOp(op)
	switch op.ID {
	case cuda.CallMemcpy:
		return c, op.Dir == cuda.D2H
	case cuda.CallFree, cuda.CallMemcpyAsync, cuda.CallLaunch, cuda.CallEventRecord, cuda.CallEventDestroy:
		return c, false
	}
	return c, true
}

// exit ends the thread once ThreadExit's reply r is in (nil if it failed):
// the feedback goes to the mapper and the binding is released.
func (ip *Interposer) exit(r *rpcproto.Reply) {
	ip.exited = true
	if r != nil {
		ip.ep.Close() // the session's last reply is in: this side is done too
		if r.Feedback != nil {
			ip.fb = *r.Feedback
			ip.LastFeedback = &ip.fb
		}
	}
	ip.freeLast() // no next call will: the feedback was all that was left to read
	ip.fab.ReportFeedback(ip.gid, ip.kind, ip.LastFeedback)
}
