package rpcproto

import (
	"testing"

	"repro/internal/cuda"
	"repro/internal/sim"
	"repro/internal/sim/shard"
)

func TestConnDeliversInOrderWithLatency(t *testing.T) {
	k := sim.NewKernel(1)
	conn := NewConn(k, LinkSpec{Latency: 10}) // no bandwidth cost
	var got []uint64
	var times []sim.Time
	k.Go("backend", func(p *sim.Proc) {
		b := conn.B()
		for i := 0; i < 3; i++ {
			m := b.Recv(p).(*Call)
			got = append(got, m.Seq)
			times = append(times, p.Now())
		}
	})
	k.Go("frontend", func(p *sim.Proc) {
		a := conn.A()
		for i := 0; i < 3; i++ {
			a.Send(p, &Call{ID: cuda.CallLaunch, Seq: uint64(i)}, 0)
			p.Sleep(1)
		}
	})
	k.Run()
	for i, s := range got {
		if s != uint64(i) {
			t.Fatalf("order = %v", got)
		}
	}
	if times[0] != 10 {
		t.Fatalf("first delivery at %v, want 10us", times[0])
	}
}

func TestConnBandwidthChargesSender(t *testing.T) {
	k := sim.NewKernel(1)
	conn := NewConn(k, LinkSpec{Latency: 0, Bandwidth: 100})
	var sendCost sim.Time
	k.Go("frontend", func(p *sim.Proc) {
		a := conn.A()
		t0 := p.Now()
		// 10000-byte payload at 100 B/us ≈ 100us + header.
		a.Send(p, &Call{ID: cuda.CallMemcpy, Dir: cuda.H2D, Bytes: 10000}, 10000)
		sendCost = p.Now() - t0
	})
	k.Go("backend", func(p *sim.Proc) {
		conn.B().Recv(p)
	})
	k.Run()
	if sendCost < 100 || sendCost > 105 {
		t.Fatalf("send cost = %v, want ~100us", sendCost)
	}
}

func TestConnBidirectional(t *testing.T) {
	k := sim.NewKernel(1)
	conn := NewConn(k, SharedMemLink)
	var reply *Reply
	k.Go("backend", func(p *sim.Proc) {
		b := conn.B()
		c := b.Recv(p).(*Call)
		b.Send(p, &Reply{Seq: c.Seq, Count: 4}, 0)
	})
	k.Go("frontend", func(p *sim.Proc) {
		a := conn.A()
		a.Send(p, &Call{ID: cuda.CallDeviceCount, Seq: 9}, 0)
		reply = a.Recv(p).(*Reply)
	})
	k.Run()
	if reply == nil || reply.Seq != 9 || reply.Count != 4 {
		t.Fatalf("reply = %+v", reply)
	}
}

// A connection is one object: its two inboxes and their signals are part of
// it. One from a warm ConnPool, routed across kernels, is none.
func TestConnIsOneAllocation(t *testing.T) {
	k := sim.NewKernel(1)
	var sink *Conn
	if n := testing.AllocsPerRun(100, func() { sink = NewConn(k, SharedMemLink) }); n != 1 {
		t.Errorf("NewConn allocates %v objects, want 1", n)
	}
	if a, b := sink.A(), sink.B(); a.out != b.in || a.in != b.out || a.in == a.out {
		t.Errorf("endpoints do not share the connection's two inboxes: A %+v, B %+v", a, b)
	}
	co := shard.NewCoordinator([]*sim.Kernel{k, sim.NewKernel(2)}, RemoteLink.Latency, 0)
	var cp ConnPool
	var pool Pool
	routed := func() {
		c := cp.Get(k, RemoteLink)
		c.SetPool(&pool)
		c.SetRoute(co.Shard(0), 0, co.Shard(1), 1)
		c.A().Close()
		c.B().Close()
	}
	routed()
	if n := testing.AllocsPerRun(100, routed); n != 0 {
		t.Errorf("a routed connection from a warm ConnPool allocates %v objects, want 0", n)
	}
}

func TestInboxLen(t *testing.T) {
	k := sim.NewKernel(1)
	conn := NewConn(k, LinkSpec{})
	k.Go("frontend", func(p *sim.Proc) {
		a, b := conn.A(), conn.B()
		if a.InboxLen() != 0 || b.InboxLen() != 0 {
			t.Error("a fresh connection has messages waiting")
		}
		a.Send(p, &Call{Seq: 1}, 0)
		a.Send(p, &Call{Seq: 2}, 0)
		p.Sleep(0) // let timer deliveries land
		if b.InboxLen() != 2 {
			t.Errorf("InboxLen = %d, want 2", b.InboxLen())
		}
		if m := b.Recv(p); m.(*Call).Seq != 1 || b.InboxLen() != 1 {
			t.Errorf("Recv = %v with %d left, want call 1 and 1 left", m, b.InboxLen())
		}
	})
	k.Run()
}

func TestLinkTransferTime(t *testing.T) {
	l := LinkSpec{Bandwidth: 125}
	if got := l.TransferTime(125000); got != 1000 {
		t.Fatalf("TransferTime = %v, want 1000us", got)
	}
	if got := (LinkSpec{}).TransferTime(1 << 30); got != 0 {
		t.Fatalf("infinite bandwidth TransferTime = %v, want 0", got)
	}
	if got := l.TransferTime(0); got != 0 {
		t.Fatalf("zero size TransferTime = %v", got)
	}
}

func TestGigESlowerThanShm(t *testing.T) {
	run := func(link LinkSpec) sim.Time {
		k := sim.NewKernel(1)
		conn := NewConn(k, link)
		var done sim.Time
		k.Go("backend", func(p *sim.Proc) {
			b := conn.B()
			c := b.Recv(p).(*Call)
			b.Send(p, &Reply{Seq: c.Seq}, 0)
		})
		k.Go("frontend", func(p *sim.Proc) {
			a := conn.A()
			a.Send(p, &Call{ID: cuda.CallMemcpy, Dir: cuda.H2D, Bytes: 1 << 20}, 1<<20)
			a.Recv(p)
			done = p.Now()
		})
		k.Run()
		return done
	}
	// Literal Gigabit Ethernet: ~125 bytes/us.
	shm, gige := run(SharedMemLink), run(LinkSpec{Latency: 60 * sim.Microsecond, Bandwidth: 125})
	if gige <= shm {
		t.Fatalf("GigE RTT %v not slower than shm RTT %v", gige, shm)
	}
	// 1 MiB at 125 B/us ≈ 8.4ms of wire time.
	if gige < 8*sim.Millisecond {
		t.Fatalf("GigE 1MiB copy cost %v, want >= 8ms", gige)
	}
}

// crossSession is what one frontend/backend pair on two kernels observed.
// The frontend's process writes the first group of fields and the backend's
// the second; the test reads them after the run.
type crossSession struct {
	frames   []*Call    // the call frames the frontend took, in issue order
	sent     []sim.Time // the instant each Send returned
	reply    *Reply
	replySeq uint64
	replyAt  sim.Time

	arrived    []*Call
	arrivedSeq []uint64
	arrivedAt  []sim.Time
	replyFrame *Reply
	replied    sim.Time // the instant the reply's Send returned
}

// runCrossSession starts, at the given instant, a frontend on conn's A side
// issuing three non-blocking calls of growing payload and one blocking call,
// and a backend on its B side, each recycling through its endpoint's pool
// under the ownership discipline of Pool, and each closing its side.
func runCrossSession(kA, kB *sim.Kernel, conn *Conn, start sim.Time) *crossSession {
	s := &crossSession{}
	kA.Go("frontend", func(p *sim.Proc) {
		p.Sleep(start)
		ep := conn.A()
		for i := 1; i <= 4; i++ {
			c := ep.Pool().GetCall()
			c.ID, c.Seq, c.NonBlocking = cuda.CallMemcpy, uint64(i), i < 4
			s.frames = append(s.frames, c)
			ep.Send(p, c, int64(i)*1000)
			s.sent = append(s.sent, p.Now())
		}
		s.reply = ep.Recv(p).(*Reply)
		s.replySeq, s.replyAt = s.reply.Seq, p.Now()
		ep.Pool().FreeCall(s.frames[3])
		ep.Pool().FreeReply(s.reply)
		ep.Close()
	})
	kB.Go("backend", func(p *sim.Proc) {
		ep := conn.B()
		for i := 1; i <= 4; i++ {
			c := ep.Recv(p).(*Call)
			s.arrived = append(s.arrived, c)
			s.arrivedSeq = append(s.arrivedSeq, c.Seq)
			s.arrivedAt = append(s.arrivedAt, p.Now())
			if c.NonBlocking {
				ep.Pool().FreeCall(c)
				continue
			}
			s.replyFrame = ep.Pool().GetReply()
			s.replyFrame.Seq = c.Seq
			ep.Send(p, s.replyFrame, 500)
			s.replied = p.Now()
		}
		ep.Close()
	})
	return s
}

// TestRoutedConnFramesComeHome drives routed connections between two kernels
// of one shard coordinator, the layout core builds for a remote GPU, one
// opened by each kernel from its ConnPool. Messages arrive in send order, one
// link latency after the sender has paid the transfer; every frame either side
// frees goes back to the opener's pool, and the connection to its ConnPool.
func TestRoutedConnFramesComeHome(t *testing.T) {
	link := LinkSpec{Latency: 60, Bandwidth: 100}
	kernels := []*sim.Kernel{sim.NewKernel(1), sim.NewKernel(2)}
	co := shard.NewCoordinator(kernels, link.Latency, 0)
	conns, pools := make([]ConnPool, 2), make([]Pool, 2)
	connect := func(a, b int) *Conn {
		conn := conns[a].Get(kernels[a], link)
		conn.SetPool(&pools[a])
		conn.SetRoute(co.Shard(a), a, co.Shard(b), b)
		return conn
	}
	sessions := []*crossSession{
		runCrossSession(kernels[0], kernels[1], connect(0, 1), 0),
		runCrossSession(kernels[1], kernels[0], connect(1, 0), 100*sim.Millisecond),
	}
	co.Run()
	co.Close()

	for k, s := range sessions {
		if len(s.arrived) != 4 || s.reply == nil {
			t.Fatalf("opened by %d: %d calls arrived, reply %v", k, len(s.arrived), s.reply)
		}
		for i := range s.arrived {
			if s.arrivedSeq[i] != uint64(i+1) || s.arrived[i] != s.frames[i] {
				t.Fatalf("opened by %d: arrival %d is call %d, want the frame issued as call %d", k, i, s.arrivedSeq[i], i+1)
			}
			if s.arrivedAt[i] != s.sent[i]+link.Latency {
				t.Fatalf("opened by %d: call %d sent by %v arrived at %v, want one latency later", k, i+1, s.sent[i], s.arrivedAt[i])
			}
			if i > 0 && s.sent[i]-s.sent[i-1] < link.TransferTime(int64(i+1)*1000) {
				t.Fatalf("opened by %d: call %d left %v after its predecessor, under its transfer time", k, i+1, s.sent[i]-s.sent[i-1])
			}
		}
		if s.reply != s.replyFrame || s.replySeq != 4 || s.replyAt != s.replied+link.Latency {
			t.Fatalf("opened by %d: reply %p (seq %d) at %v, backend sent %p by %v", k, s.reply, s.replySeq, s.replyAt, s.replyFrame, s.replied)
		}
		// The opener's pool holds every frame its session took, and nothing else.
		took := map[*Call]bool{}
		for _, c := range s.frames {
			took[c] = true
		}
		held := len(pools[k].calls) == len(took)
		for _, c := range pools[k].calls {
			held = held && took[c]
		}
		if !held || len(pools[k].replies) != 1 || pools[k].replies[0] != s.replyFrame {
			t.Fatalf("opened by %d: the pool holds calls %v and replies %v, want the session's calls %v and reply %p",
				k, pools[k].calls, pools[k].replies, s.frames, s.replyFrame)
		}
		if len(conns[k].free) != 1 {
			t.Fatalf("opened by %d: %d connections back in the ConnPool, want 1", k, len(conns[k].free))
		}
	}
}
