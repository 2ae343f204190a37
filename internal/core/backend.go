package core

import (
	"fmt"

	"repro/internal/cuda"
	"repro/internal/devsched"
	"repro/internal/rpcproto"
	"repro/internal/sim"
)

// accepting is a connection on its way to a backend: a pooled record whose
// accept, bound once as fn, a mailbox can run on the device's kernel.
type accepting struct {
	c    *Cluster
	gid  int
	conn *rpcproto.Conn
	fn   func()
}

// accept starts the backend side of the connection to gid, on the device's
// kernel: a thread of the GPU's Strings backend process, or a Rain (Design I)
// process numbered from that kernel's application counter. The record goes
// back to the cluster's list.
func (a *accepting) accept() {
	c, gid := a.c, a.gid
	e := c.devEnv[gid]
	n := &e.appSeq
	if c.cfg.Mode == ModeStrings {
		n = &c.threads[gid]
	}
	*n++
	s := take(&e.sessions)
	if s.stepFn == nil {
		s.nameFn, s.stepFn, s.backlogFn = s.name, s.step, s.backlog
		e.made.sessions = append(e.made.sessions, s) // bounded by peak live sessions
	}
	s.c, s.e, s.idle = c, e, false
	s.serving = serving{gid: gid, n: *n, ep: a.conn.B()}
	e.k.StartDaemon(&s.d, s.nameFn, s.stepFn)
	a.c, a.conn = nil, nil
	c.accepts = append(c.accepts, a) // bounded by peak accepts in flight
}

// openApp gives an application that completed the handshake its lane on device
// gid, the lane's thread running on the session daemon.
// Under Strings the lane is a Context Packer port on the GPU's backend
// process, so its calls are translated (AST/SST/MOT) before they execute.
// Under Rain it is rp, a fresh CUDA process — and therefore a private GPU
// context — executing the application's calls verbatim: synchronous memcpys
// stay synchronous, device synchronizes stay device-wide, everything runs on
// the context's default stream. The per-device scheduler still gates
// submission, which is how TFS-Rain and LAS-Rain are realized.
func (c *Cluster) openApp(gid int, first *rpcproto.Call, pool *rpcproto.Pool, rp *rainPort) (appPort, error) {
	appID := int(first.AppID)
	if c.cfg.Mode == ModeStrings {
		port, err := c.packers[gid].Open(nil, appID, first.TenantID)
		if err != nil {
			return nil, err
		}
		port.SetPool(pool)
		return port, nil
	}
	// The process sees one device: a capped view of the pool's slice, not a
	// fresh one-element slice per application.
	rp.rt.Init(c.devEnv[gid].k, c.devices[gid:gid+1:gid+1], c.cudaConfig())
	rp.rt.SetOwner(appID)
	rp.rt.InitThread(&rp.t, nil, appID)
	rp.pool = pool
	return rp, rp.t.SetDevice(0)
}

// rainPort is a Rain application's lane: its private process, one thread of
// it, behind the shared verbatim executor. Both are held by value, and the
// lane by its session, so that a reused session's process starts
// allocation-free.
type rainPort struct {
	rt   cuda.Runtime
	t    cuda.Thread
	pool *rpcproto.Pool
}

func (rp *rainPort) Execute(call *rpcproto.Call) *rpcproto.Reply {
	reply := rp.pool.GetReply()
	rpcproto.Execute(&rp.t, call, reply)
	return reply
}

func (rp *rainPort) Pending() *sim.Event { return rp.t.Pending() }

// appPort is one application's execution lane at a backend: it turns a
// marshalled call into its reply, final once Pending returns nil.
type appPort interface {
	Execute(call *rpcproto.Call) *rpcproto.Reply
	Pending() *sim.Event
}

// session is one application's backend thread (Strings) or backend process
// (Rain), run as a daemon: it performs the registration handshake with the
// Request Manager, opens the application's lane, then executes the
// application's marshalled calls under the Dispatcher's wake/sleep gating.
// A step runs from the stage the last one waited in to the next wait. An
// exited session, daemon and all, serves the next connection on its kernel.
type session struct {
	d sim.Daemon
	c *Cluster
	e *slab

	// Its methods as values, bound once: a reused session starts allocation-free.
	nameFn    func() string
	stepFn    func(*sim.Daemon)
	backlogFn func() int

	// rcb is the application's RCB entry, which the session owns and the
	// device scheduler lists from Register to Unregister.
	rcb devsched.Entry

	// rain is the Rain process the session hosts, released when it exits.
	rain rainPort
	idle bool // on its slab's free list

	serving
}

// serving is a session's state for the application it serves.
type serving struct {
	gid   int
	n     int // the number in its name (bt-gid-n, rain-gid-n)
	ep    rpcproto.Endpoint
	pool  *rpcproto.Pool
	entry *devsched.Entry // &rcb once the handshake registers the application, nil before
	port  appPort
	held  int

	at    stage
	call  *rpcproto.Call  // the call in hand
	reply *rpcproto.Reply // its reply
	t0    sim.Time        // when the call began executing
	cost  sim.Time        // the reply's transfer, still to be paid
	last  bool            // the reply is the session's last
}

// stage is where a session's next step starts.
type stage uint8

const (
	recv      stage = iota // take the next call, and sit out a stall
	gated                  // apply a kill, or go for the turn
	turn                   // wait for the Dispatcher to have the thread awake
	executing              // wait out the call's device work and degrade penalty
	executed               // dispose of the executed call
	sending                // pay the reply's transfer, then post it
)

// backlog is the Dispatcher's view of the thread's pending requests: the
// call in hand plus the inbox.
func (s *session) backlog() int { return s.held + s.ep.InboxLen() }

func (s *session) name() string {
	if s.c.cfg.Mode == ModeStrings {
		return fmt.Sprintf("bt-%d-%d", s.gid, s.n)
	}
	return fmt.Sprintf("rain-%d-%d", s.gid, s.n)
}

// exit ends the daemon and its process, and leaves the session for the next
// accept; nothing is queued for it, as it waits for one thing at a time and
// exits from a step.
func (s *session) exit(d *sim.Daemon) {
	d.Exit()
	s.rain.rt.Release()
	s.idle = true
	s.e.sessions = append(s.e.sessions, s) // bounded by peak live sessions
}

func (s *session) step(d *sim.Daemon) {
	c, gid, sched := s.c, s.gid, s.c.scheds[s.gid]
	for {
		switch s.at {
		case recv:
			msg, ok := s.ep.Take(d)
			if !ok {
				return
			}
			call, ok := msg.(*rpcproto.Call)
			if s.entry == nil && (!ok || call.ID != cuda.CallSetDevice) {
				s.reply = &rpcproto.Reply{}
				s.reply.SetError(cuda.ErrInvalidValue)
				s.send(0, true)
			} else if ok {
				s.call, s.at = call, gated
				if stall := c.stallUntil[gid] - d.Now(); stall > 0 && !c.gpuDown[gid] {
					d.Sleep(stall)
					return
				}
			}

		case gated:
			switch {
			case c.gpuDown[gid] && s.entry == nil:
				// The backend died before (or while) the registration was
				// served: the handshake reply never leaves the node.
				s.exit(d)
				return
			case c.gpuDown[gid]:
				// Killed: swallow the call and keep draining the inbox so
				// retransmissions die here instead of backing up the queue.
				s.drop()
			case s.entry == nil:
				// The handshake: the Request Manager registers the
				// application, its lane opens, and the reply goes back.
				first := s.call
				s.pool = s.ep.Pool()
				s.entry = &s.rcb
				sched.Register(s.entry, int(first.AppID), first.TenantID, int(first.Weight), first.KernelName, s.backlogFn)
				port, err := c.openApp(gid, first, s.pool, &s.rain)
				s.port = port
				s.reply = s.pool.GetReply()
				s.reply.Seq = first.Seq
				s.reply.SetError(err)
				s.send(0, err != nil)
			default:
				s.held, s.at = 1, turn
				sched.SetPhaseEntry(s.entry, devsched.CallPhase(s.call))
			}

		case turn:
			if devsched.GatesOnDispatch(s.call.ID) && !sched.Turn(s.entry) {
				d.WaitSignal(&s.entry.Wake)
				return
			}
			s.t0, s.at = d.Now(), executing
			s.reply = s.port.Execute(s.call)

		case executing:
			if ev := s.port.Pending(); ev != nil {
				d.Wait(ev)
				return
			}
			s.at = executed
			if f := c.degrade[gid]; f > 1 && d.Now() > s.t0 {
				d.Sleep(sim.Time(float64(d.Now()-s.t0) * (f - 1)))
				return
			}

		case executed:
			s.held = 0
			sched.SetPhaseEntry(s.entry, devsched.PhaseDFL)
			exit := s.call.ID == cuda.CallThreadExit
			switch {
			case c.gpuDown[gid]:
				// The kill landed while the call executed: the reply is lost
				// with the daemon.
				s.drop()
				if exit {
					sched.Unregister(s.entry, nil)
					s.exit(d)
					return
				}
			case exit:
				sched.Unregister(s.entry, s.reply.AttachFeedback())
				s.send(0, true)
			case !s.call.NonBlocking:
				// Blocking round trip: the frontend owns both frames now and
				// recycles them when it issues its next call.
				s.send(s.call.ReplyPayloadBytes(), false)
			default:
				s.drop() // non-blocking: the reply is suppressed
			}

		case sending:
			if cost := s.cost; cost > 0 {
				s.cost = 0
				d.Sleep(cost)
				return
			}
			s.ep.Post(s.reply)
			if s.last {
				if s.entry != nil && s.call.ID == cuda.CallSetDevice {
					sched.Unregister(s.entry, nil) // the lane never opened
				}
				// The last message either side sends: the connection goes back
				// for reuse once the frontend has read it too.
				s.ep.Close()
				s.exit(d)
				return
			}
			s.call, s.reply, s.at = nil, nil, recv
		}
	}
}

// send makes the reply in hand the next to post, the session's last with
// last, once its transfer with payload bulk bytes is paid.
func (s *session) send(payload int64, last bool) {
	s.at, s.cost, s.last = sending, s.ep.Cost(s.reply, payload), last
}

// drop discards the call in hand and its reply, and goes back to receiving: a
// non-blocking call, which the frontend forgot at issue, is this side's too.
func (s *session) drop() {
	s.pool.FreeReply(s.reply)
	if s.call.NonBlocking {
		s.pool.FreeCall(s.call)
	}
	s.call, s.reply, s.at = nil, nil, recv
}
