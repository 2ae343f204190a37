package core

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/cuda"
	"repro/internal/devsched"
	"repro/internal/faults"
	"repro/internal/gpu"
	"repro/internal/rpcproto"
	"repro/internal/sim"
	"repro/internal/trace"
)

// The backend thread is a step machine (session). What it owes the rest of
// the model is what the coroutine loop it replaced did, wait for wait:
// refServeApp is that loop, kept as the reference, over the blocking forms of
// the same waits. Seeded call scripts drive both and must leave equal reply
// logs and traces.

// refServeApp is the backend loop as a coroutine: one application's backend
// thread (Strings) or backend process (Rain) on p, which waits out each call's
// lane before it goes on.
func (c *Cluster) refServeApp(p *sim.Proc, gid int, ep rpcproto.Endpoint) {
	first, ok := ep.Recv(p).(*rpcproto.Call)
	if !ok || first.ID != cuda.CallSetDevice {
		reply := &rpcproto.Reply{}
		reply.SetError(cuda.ErrInvalidValue)
		ep.Send(p, reply, 0)
		return
	}
	if c.refFaultGate(p, gid) {
		return
	}
	appID := int(first.AppID)
	pool := ep.Pool()
	sched := c.scheds[gid]
	held := 0
	entry := new(devsched.Entry)
	sched.Register(entry, appID, first.TenantID, int(first.Weight),
		first.KernelName, func() int { return held + ep.InboxLen() })
	port, err := c.openApp(gid, first, pool, new(rainPort))
	reply := pool.GetReply()
	reply.Seq = first.Seq
	reply.SetError(err)
	ep.Send(p, reply, 0)
	if err != nil {
		sched.Unregister(entry, nil)
		return
	}
	for {
		call, ok := ep.Recv(p).(*rpcproto.Call)
		if !ok {
			continue
		}
		if c.refFaultGate(p, gid) {
			continue
		}
		held = 1
		sched.SetPhaseEntry(entry, devsched.CallPhase(call))
		for devsched.GatesOnDispatch(call.ID) && !sched.Turn(entry) {
			p.WaitSignal(&entry.Wake)
		}
		t0 := p.Now()
		reply := port.Execute(call)
		for ev := port.Pending(); ev != nil; ev = port.Pending() {
			p.Wait(ev)
		}
		if f := c.degrade[gid]; f > 1 && p.Now() > t0 {
			p.Sleep(sim.Time(float64(p.Now()-t0) * (f - 1)))
		}
		held = 0
		sched.SetPhaseEntry(entry, devsched.PhaseDFL)
		if c.gpuDown[gid] {
			if call.ID == cuda.CallThreadExit {
				sched.Unregister(entry, nil)
				return
			}
			pool.FreeReply(reply)
			continue
		}
		if call.ID == cuda.CallThreadExit {
			sched.Unregister(entry, reply.AttachFeedback())
			ep.Send(p, reply, 0)
			return
		}
		if !call.NonBlocking {
			ep.Send(p, reply, call.ReplyPayloadBytes())
			continue
		}
		pool.FreeReply(reply)
		pool.FreeCall(call)
	}
}

// refFaultGate is the reference's fault check: a killed backend swallows the
// call (true), a stalled one sleeps the stall out first.
func (c *Cluster) refFaultGate(p *sim.Proc, gid int) bool {
	if c.gpuDown[gid] {
		return true
	}
	if until := c.stallUntil[gid]; until > p.Now() {
		p.Sleep(until - p.Now())
		return c.gpuDown[gid]
	}
	return false
}

// refAccept is accept for the reference: the backend side of conn as a
// process running refServeApp.
func (c *Cluster) refAccept(gid int, conn *rpcproto.Conn) {
	ep := conn.B()
	c.devEnv[gid].k.Go("ref-backend", func(p *sim.Proc) { c.refServeApp(p, gid, ep) })
}

// A call script is one application's calls. Handles (pointers, streams,
// events) are picked among those the application's earlier replies returned,
// or, one past them, a handle it never got: a bogus pointer, the default
// stream, an unknown event.
type scriptCall struct {
	id          cuda.CallID
	nonBlocking bool
	gap         sim.Time // host time before the call is issued
	bytes       int64
	dir         cuda.Dir
	pick, pick2 int
	compute     float64
	traffic     float64
	occ         float64
}

type scriptApp struct {
	start  sim.Time
	tenant int64
	weight int32
	calls  []scriptCall // the last is a blocking cudaThreadExit
}

type backendScript struct {
	mode   Mode
	policy string
	guard  bool          // BlockOnOOM
	mem    int64         // device memory
	rounds []scriptRound // run back to back on one cluster
}

// scriptRound is one round of a script: its applications, and the faults that
// hit while they run at instants from the round's start. Each round starts
// scriptHorizon after the one before, on a GPU revived from that round's
// faults, so the sessions, connections and lanes the earlier rounds left
// behind — after a kill, a stall or a degrade too — serve the later ones.
type scriptRound struct {
	apps []scriptApp
	plan faults.Plan
}

// newBackendScript deals a script from rng: a mode and device policy, a
// device small enough that two tenants' buffers do not fit together, and one
// to three rounds of one to three applications issuing every call kind
// blocking and non-blocking, with kill, stall and degrade faults landing at
// random instants.
func newBackendScript(rng *rand.Rand) backendScript {
	sc := backendScript{mode: ModeStrings, guard: rng.Intn(2) == 0, mem: 3 << 20}
	if rng.Intn(3) == 0 {
		sc.mode = ModeRain
	}
	policies := []string{"none", "TFS", "LAS", "PS"}
	if sc.mode == ModeRain {
		policies = policies[:3]
	}
	sc.policy = policies[rng.Intn(len(policies))]
	for r, n := 0, 1+rng.Intn(3); r < n; r++ {
		sc.rounds = append(sc.rounds, newScriptRound(rng))
	}
	return sc
}

func newScriptRound(rng *rand.Rand) scriptRound {
	var sc scriptRound
	for i, n := 0, 1+rng.Intn(3); i < n; i++ {
		app := scriptApp{start: sim.Time(rng.Intn(3000)), tenant: int64(1 + rng.Intn(2)), weight: int32(1 + rng.Intn(3))}
		for j, m := 0, 2+rng.Intn(14); j < m; j++ {
			app.calls = append(app.calls, scriptCall{
				id:          cuda.CallID(1 + rng.Intn(int(cuda.CallEventDestroy))),
				nonBlocking: rng.Intn(3) == 0,
				gap:         sim.Time(rng.Intn(4) * rng.Intn(1500)),
				bytes:       int64(1+rng.Intn(4)) << 19,
				dir:         cuda.Dir(rng.Intn(2)),
				pick:        rng.Intn(8),
				pick2:       rng.Intn(8),
				compute:     float64(1+rng.Intn(20)) * 48e6,
				traffic:     float64(rng.Intn(8)) * 1e6,
				occ:         0.25 * float64(1+rng.Intn(4)),
			})
		}
		app.calls = append(app.calls, scriptCall{id: cuda.CallThreadExit})
		sc.apps = append(sc.apps, app)
	}
	at := func() sim.Time { return sim.Time(rng.Intn(40_000)) }
	if rng.Intn(3) == 0 {
		sc.plan.Faults = append(sc.plan.Faults, faults.Fault{At: at(), Kind: faults.KillGPU})
	}
	if rng.Intn(3) == 0 {
		sc.plan.Faults = append(sc.plan.Faults, faults.Fault{At: at(), Kind: faults.StallGPU, Dur: sim.Time(1 + rng.Intn(20_000))})
	}
	if rng.Intn(3) == 0 {
		sc.plan.Faults = append(sc.plan.Faults, faults.Fault{At: at(), Kind: faults.DegradeGPU, Factor: 1.5 + float64(rng.Intn(4))/2})
	}
	return sc
}

// replyRec is one line of a script's reply log: a reply as its application
// received it, or the timeout that ended the application.
type replyRec struct {
	At      sim.Time
	Round   int
	App     int
	Seq     uint64
	ID      cuda.CallID
	Reply   rpcproto.Reply
	Fb      rpcproto.Feedback
	Timeout bool
}

// scriptTimeout is how long an application waits for a reply before it gives
// the backend up: longer than any stall a script injects.
const scriptTimeout = 2 * sim.Second

// scriptHorizon ends a script round: a tenant left registered by a kill or an
// allocation that never fits keeps the device scheduler's epochs ticking.
const scriptHorizon = 30 * sim.Second

// runBackendScript runs sc's rounds on a one-GPU node, each application's
// connection taken from the kernel's pool and accepted by accept, and returns
// the reply log and the trace.
func runBackendScript(t *testing.T, sc backendScript, accept func(c *Cluster, gid int, conn *rpcproto.Conn)) ([]replyRec, []byte) {
	t.Helper()
	spec := gpu.TeslaC2050
	spec.MemBytes = sc.mem
	var plan faults.Plan
	for r, round := range sc.rounds {
		for _, f := range round.plan.Faults {
			f.At += sim.Time(r) * scriptHorizon
			plan.Faults = append(plan.Faults, f)
		}
	}
	c, err := New(Config{
		Seed: 1, Nodes: []NodeConfig{{Devices: []gpu.Spec{spec}}}, Mode: sc.mode,
		DevPolicy: sc.policy, BlockOnOOM: sc.guard, Recorder: trace.New(), Faults: plan,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	c.K.Go("revive", func(p *sim.Proc) {
		for r := 1; r < len(sc.rounds); r++ {
			p.Sleep(sim.Time(r)*scriptHorizon - 1 - p.Now())
			c.gpuDown[0], c.stallUntil[0], c.degrade[0] = false, 0, 0
		}
	})
	var log []replyRec
	pool := &rpcproto.Pool{}
	for r, round := range sc.rounds {
		for i, app := range round.apps {
			sc := &scriptClient{c: c, accept: accept, pool: pool, r: r, i: i, app: app, log: &log,
				calls: append([]scriptCall{{id: cuda.CallSetDevice}}, app.calls...)}
			c.K.GoDaemon(fmt.Sprintf("script-%d.%d", r, i), sc.step)
		}
	}
	c.coord.RunUntil(sim.Time(len(sc.rounds)) * scriptHorizon)
	apps, exits := 0, 0
	for _, round := range sc.rounds {
		apps += len(round.apps)
	}
	for _, r := range log {
		exits += btoi(r.ID == cuda.CallThreadExit && !r.Timeout)
	}
	var jsonl []byte
	for _, rec := range c.Recorders() {
		if open := rec.Open(); exits == apps && len(open) > 0 {
			t.Fatalf("every application exited, but span %+v is open", open[0])
		}
		jsonl = rec.Snapshot().AppendJSONL(jsonl)
	}
	return log, jsonl
}

// scriptClient is application i of round r, a daemon: it connects, registers,
// makes its calls and logs their replies, until a call times out or it has
// read a cudaThreadExit reply; then it closes its side of the connection.
type scriptClient struct {
	c      *Cluster
	accept func(c *Cluster, gid int, conn *rpcproto.Conn)
	pool   *rpcproto.Pool
	r, i   int
	app    scriptApp
	log    *[]replyRec

	calls   []scriptCall // the registration, then the app's
	ep      rpcproto.Endpoint
	ptrs    []cuda.Ptr
	streams []int32
	events  []int32
	pc      int // the call in hand
	at      uint8
	m       *rpcproto.Call
}

func (s *scriptClient) step(d *sim.Daemon) {
	for s.pc < len(s.calls) {
		switch s.at {
		case 0: // wait for the round and the application's start
			s.at = 1
			d.Sleep(sim.Time(s.r)*scriptHorizon + s.app.start)
			return
		case 1: // connect first; wait out the call's gap
			if s.pc == 0 {
				conn := s.c.envs[0].conns.Get(s.c.K, rpcproto.SharedMemLink)
				conn.SetPools(s.pool, s.pool)
				s.accept(s.c, 0, conn)
				s.ep = conn.A()
			}
			s.at = 2
			d.Sleep(s.calls[s.pc].gap)
			return
		case 2: // pay its transfer
			s.m, s.at = s.fill(s.calls[s.pc]), 3
			if cost := s.ep.Cost(s.m, s.m.PayloadBytes()); cost > 0 {
				d.Sleep(cost)
				return
			}
		case 3: // post it
			s.ep.Post(s.m)
			s.at = 4
			if s.m.NonBlocking {
				s.pc, s.at = s.pc+1, 1
			}
		case 4: // wait for its reply
			msg, ok, expired := s.ep.TakeTimeout(d, scriptTimeout)
			if !ok && !expired {
				return
			}
			if !s.replied(d, msg, ok) {
				d.Exit()
				return
			}
			s.pc, s.at = s.pc+1, 1
		}
	}
	d.Exit()
}

// fill makes sc's frame, on the handles earlier replies returned.
func (s *scriptClient) fill(sc scriptCall) *rpcproto.Call {
	m := s.pool.GetCall()
	m.ID, m.Seq, m.NonBlocking = sc.id, uint64(s.pc+1), sc.nonBlocking
	stream := func(k int) int32 { return pick(s.streams, k, 0) }
	switch sc.id {
	case cuda.CallSetDevice:
		m.AppID, m.TenantID, m.Weight, m.KernelName = int64(100*(s.r+1)+s.i), s.app.tenant, s.app.weight, "script"
	case cuda.CallMalloc:
		m.Bytes = sc.bytes
	case cuda.CallFree, cuda.CallMemcpy, cuda.CallMemcpyAsync:
		pt := pick(s.ptrs, sc.pick, cuda.Ptr{ID: 1 << 40, Size: 1 << 20})
		m.PtrID, m.PtrSize, m.PtrDev = pt.ID, pt.Size, int32(pt.Dev)
		m.Dir, m.Bytes = sc.dir, min(sc.bytes, pt.Size)
		m.Stream = stream(sc.pick2)
	case cuda.CallLaunch:
		m.KernelName, m.Compute, m.MemTraffic, m.Occupancy = "k", sc.compute, sc.traffic, sc.occ
		m.Stream = stream(sc.pick)
	case cuda.CallStreamSync, cuda.CallStreamDestroy:
		m.Stream = stream(sc.pick)
	case cuda.CallEventRecord, cuda.CallEventSync, cuda.CallEventElapsed, cuda.CallEventDestroy:
		m.Event, m.Event2, m.Stream = pick(s.events, sc.pick, 99), pick(s.events, sc.pick2, 99), stream(sc.pick2)
	}
	return m
}

// pick is the kth of the handles hs, or, one past them, none: a handle the
// application never got.
func pick[T any](hs []T, k int, none T) T {
	if k %= len(hs) + 1; k < len(hs) {
		return hs[k]
	}
	return none
}

// replied logs the reply msg to the call in flight, or its timeout (!ok), and
// reports whether the application goes on.
func (s *scriptClient) replied(d *sim.Daemon, msg rpcproto.Msg, ok bool) bool {
	sc, seq := s.calls[s.pc], s.m.Seq
	if !ok {
		*s.log = append(*s.log, replyRec{At: d.Now(), Round: s.r, App: s.i, Seq: seq, ID: sc.id, Timeout: true})
		return false
	}
	rep := msg.(*rpcproto.Reply)
	rec := replyRec{At: d.Now(), Round: s.r, App: s.i, Seq: seq, ID: sc.id, Reply: *rep}
	if rep.Feedback != nil {
		rec.Fb, rec.Reply.Feedback = *rep.Feedback, nil
	}
	*s.log = append(*s.log, rec)
	if rep.Err == "" {
		switch sc.id {
		case cuda.CallMalloc:
			s.ptrs = append(s.ptrs, cuda.Ptr{Dev: int(rep.PtrDev), ID: rep.PtrID, Size: rep.PtrSize})
		case cuda.CallStreamCreate:
			s.streams = append(s.streams, rep.Stream)
		case cuda.CallEventCreate:
			s.events = append(s.events, rep.Event)
		}
	}
	s.pool.FreeCall(s.m)
	s.pool.FreeReply(rep)
	if sc.id == cuda.CallThreadExit {
		// Like the interposer: the session has exited, nothing more is
		// sent, and this side is done with the connection.
		s.ep.Close()
		return false
	}
	return true
}

// TestSessionMatchesCoroutineLoop runs 1 000 seeded call scripts through the
// session daemon and through the coroutine loop it replaced. The loop reuses
// nothing but lanes; the sessions reuse sessions and connections as well, and
// none of it may show.
func TestSessionMatchesCoroutineLoop(t *testing.T) {
	n := 1000
	if testing.Short() {
		n = 200
	}
	rng := rand.New(rand.NewSource(28))
	var replies, timeouts, failed, feedback int
	var sessions, afterFault, conns int // accepts that reused a session (after a faulty round) or a connection
	for i := 0; i < n; i++ {
		sc := newBackendScript(rng)
		seen := map[*rpcproto.Conn]bool{}
		accept := func(c *Cluster, gid int, conn *rpcproto.Conn) {
			if seen[conn] {
				conns++
			}
			seen[conn] = true
			if len(c.devEnv[gid].sessions) > 0 {
				sessions++
				if r := int(c.K.Now() / scriptHorizon); r > 0 && sc.rounds[r-1].plan.Enabled() {
					afterFault++
				}
			}
			c.accept(gid, conn)
		}
		want, wantTrace := runBackendScript(t, sc, (*Cluster).refAccept)
		got, gotTrace := runBackendScript(t, sc, accept)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("script %d (%v, %s, guard %v, %+v): reply logs differ\nsession %+v\nloop    %+v",
				i, sc.mode, sc.policy, sc.guard, sc.rounds, got, want)
		}
		if string(gotTrace) != string(wantTrace) {
			t.Fatalf("script %d (%v, %s, guard %v, %+v): traces differ", i, sc.mode, sc.policy, sc.guard, sc.rounds)
		}
		for _, r := range want {
			replies++
			switch {
			case r.Timeout:
				timeouts++
			case r.Reply.Err != "":
				failed++
			}
			if r.Fb.AppID != 0 {
				feedback++
			}
		}
	}
	t.Logf("%d replies: %d timeouts, %d errors, %d with feedback; %d sessions reused (%d after a faulty round), %d connections",
		replies, timeouts, failed, feedback, sessions, afterFault, conns)
	if timeouts == 0 || failed == 0 || feedback == 0 {
		t.Fatal("the scripts no longer reach kills, failing calls and clean exits")
	}
	if sessions == 0 || afterFault == 0 || conns == 0 {
		t.Fatal("the scripts no longer reuse sessions and connections")
	}
}
