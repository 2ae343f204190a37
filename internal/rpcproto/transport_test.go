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
// it, on one kernel or across two.
func TestConnIsOneAllocation(t *testing.T) {
	kA := sim.NewKernel(1)
	deliver := func(sim.Time, *sim.Queue[Msg], Msg) {}
	var sink *Conn
	if n := testing.AllocsPerRun(100, func() { sink = NewConn(kA, SharedMemLink) }); n != 1 {
		t.Errorf("NewConn allocates %v objects, want 1", n)
	}
	if n := testing.AllocsPerRun(100, func() { sink = NewCrossConn(kA, RemoteLink, deliver, deliver) }); n != 1 {
		t.Errorf("NewCrossConn allocates %v objects, want 1", n)
	}
	if a, b := sink.A(), sink.B(); a.out != b.in || a.in != b.out || a.in == a.out {
		t.Errorf("endpoints do not share the connection's two inboxes: A %+v, B %+v", a, b)
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
// under the ownership discipline of Pool.
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
	})
	return s
}

// TestCrossConnFramesChangeKernels drives a Conn whose sides run on two
// kernels of one shard coordinator — the layout core builds for a remote GPU.
// Messages arrive in send order, one link latency after the sender has paid
// the transfer; every frame is freed into the pool of the kernel that consumed
// it; and a second session in the opposite direction takes those very frames
// back to the kernel that allocated them.
func TestCrossConnFramesChangeKernels(t *testing.T) {
	link := LinkSpec{Latency: 60, Bandwidth: 100}
	kernels := []*sim.Kernel{sim.NewKernel(1), sim.NewKernel(2)}
	co := shard.NewCoordinator(kernels, link.Latency, 0)
	pools := make([]Pool, 2)
	connect := func(a, b int) *Conn {
		sa, sb := co.Shard(a), co.Shard(b)
		conn := NewCrossConn(kernels[a], link,
			func(lat sim.Time, q *sim.Queue[Msg], m Msg) { sa.SendPut(b, lat, q, m) },
			func(lat sim.Time, q *sim.Queue[Msg], m Msg) { sb.SendPut(a, lat, q, m) })
		conn.SetPools(&pools[a], &pools[b])
		return conn
	}
	there := runCrossSession(kernels[0], kernels[1], connect(0, 1), 0)
	back := runCrossSession(kernels[1], kernels[0], connect(1, 0), 100*sim.Millisecond)
	co.Run()
	co.Close()

	for name, s := range map[string]*crossSession{"0→1": there, "1→0": back} {
		if len(s.arrived) != 4 || s.reply == nil {
			t.Fatalf("%s: %d calls arrived, reply %v", name, len(s.arrived), s.reply)
		}
		for i := range s.arrived {
			if s.arrivedSeq[i] != uint64(i+1) || s.arrived[i] != s.frames[i] {
				t.Fatalf("%s: arrival %d is call %d, want the frame issued as call %d", name, i, s.arrivedSeq[i], i+1)
			}
			if s.arrivedAt[i] != s.sent[i]+link.Latency {
				t.Fatalf("%s: call %d sent by %v arrived at %v, want one latency later", name, i+1, s.sent[i], s.arrivedAt[i])
			}
			if i > 0 && s.sent[i]-s.sent[i-1] < link.TransferTime(int64(i+1)*1000) {
				t.Fatalf("%s: call %d left %v after its predecessor, under its transfer time", name, i+1, s.sent[i]-s.sent[i-1])
			}
		}
		if s.reply != s.replyFrame || s.replySeq != 4 || s.replyAt != s.replied+link.Latency {
			t.Fatalf("%s: reply %p (seq %d) at %v, backend sent %p by %v", name, s.reply, s.replySeq, s.replyAt, s.replyFrame, s.replied)
		}
	}
	// Kernel 1 took the first session's three non-blocking frames from
	// kernel 0 and, as the second session's frontend, sent them back,
	// last freed first; its fourth call found the pool empty.
	for i := 0; i < 3; i++ {
		if back.frames[i] != there.frames[2-i] {
			t.Fatalf("return call %d did not reuse the frame kernel 0 allocated", i+1)
		}
	}
	// The reply frame kernel 1 allocated was freed on kernel 0, taken
	// there by the second session's backend, and freed on kernel 1 again.
	if back.replyFrame != there.replyFrame {
		t.Fatalf("the second session's backend did not reuse the reply frame freed on its kernel")
	}
	wantCalls := [][]*Call{
		{there.frames[3], there.frames[2], there.frames[1], there.frames[0]},
		{back.frames[3]},
	}
	for k := range pools {
		if len(pools[k].calls) != len(wantCalls[k]) || len(pools[k].replies) != k {
			t.Fatalf("kernel %d's pool ends with %d calls and %d replies, want %d and %d",
				k, len(pools[k].calls), len(pools[k].replies), len(wantCalls[k]), k)
		}
		for i, c := range wantCalls[k] {
			if pools[k].calls[i] != c {
				t.Fatalf("kernel %d's pool holds the wrong frame at %d", k, i)
			}
		}
	}
	if pools[1].replies[0] != there.replyFrame {
		t.Fatalf("the reply frame did not end on the kernel that allocated it")
	}

}
