package rpcproto

import (
	"testing"

	"repro/internal/sim"
)

// TestNilPoolAllocatesAndDrops: the nil pool is the disabled pool, and any
// pool drops a nil frame.
func TestNilPoolAllocatesAndDrops(t *testing.T) {
	var p *Pool
	c, r := p.GetCall(), p.GetReply()
	if c == nil || r == nil {
		t.Fatal("nil pool handed out nil frames")
	}
	c.Seq, r.Seq = 7, 7
	p.FreeCall(c)
	p.FreeReply(r)
	if c.Seq != 7 || r.Seq != 7 {
		t.Fatal("nil pool touched a freed frame")
	}
	var live Pool
	live.FreeCall(nil)
	live.FreeReply(nil)
	if len(live.calls)+len(live.replies) != 0 {
		t.Fatal("freeing a nil frame grew the pool")
	}
}

// TestRetainFramesDisablesBothSides: a connection hands out its pool on both
// sides until either endpoint asks it to retain frames; from then on both
// sides — endpoints made before and after alike — get the nil pool, and the
// pool itself is untouched.
func TestRetainFramesDisablesBothSides(t *testing.T) {
	k := sim.NewKernel(1)
	if (Endpoint{}).Pool() != nil || NewConn(k, LinkSpec{}).A().Pool() != nil {
		t.Fatal("the zero endpoint and a conn given no pool must hand out the nil pool")
	}
	var pool Pool
	pool.FreeCall(&Call{})
	for _, retainer := range []func(*Conn) Endpoint{(*Conn).A, (*Conn).B} {
		conn := NewConn(k, LinkSpec{})
		conn.SetPool(&pool)
		a, b := conn.A(), conn.B()
		if a.Pool() != &pool || b.Pool() != &pool {
			t.Fatal("endpoints did not hand out the connection's pool")
		}
		retainer(conn).RetainFrames()
		for name, ep := range map[string]Endpoint{"A": a, "B": b, "new A": conn.A(), "new B": conn.B()} {
			if ep.Pool() != nil {
				t.Fatalf("endpoint %s still hands out a pool on a retaining connection", name)
			}
		}
	}
	if len(pool.calls) != 1 {
		t.Fatal("RetainFrames disturbed the pool")
	}
}

// TestReclaimEmptiesCutConnections: connections a run left behind — one with a
// call and a reply delivered and never read, one whose backend waits on its
// inbox — come back from Reclaim after the kernel's reset as Close would leave
// them: inboxes empty and unwaited, nothing unread, the frames in the pool,
// and Get hands them out again. A connection that retains frames is left as
// it is and never handed out again.
func TestReclaimEmptiesCutConnections(t *testing.T) {
	k := sim.NewKernel(1)
	var cp ConnPool
	var pool Pool
	cut, parked, retained := cp.Get(k, SharedMemLink), cp.Get(k, SharedMemLink), cp.Get(k, SharedMemLink)
	for _, c := range []*Conn{cut, parked, retained} {
		c.SetPool(&pool)
	}
	call, reply := pool.GetCall(), pool.GetReply()
	cut.A().Post(call)
	cut.B().Post(reply)
	k.Go("backend", func(p *sim.Proc) { parked.B().Recv(p) })
	retained.A().RetainFrames()
	retained.A().Post(&Call{})
	k.Run()
	if cut.A().InboxLen() != 1 || cut.B().InboxLen() != 1 || cut.unread != 2 {
		t.Fatalf("the cut connection holds %d and %d messages, %d unread; want 1, 1 and 2",
			cut.A().InboxLen(), cut.B().InboxLen(), cut.unread)
	}
	k.Reset(0)
	cp.Reclaim()
	for name, c := range map[string]*Conn{"cut": cut, "parked": parked} {
		if c.A().InboxLen() != 0 || c.B().InboxLen() != 0 || c.unread != 0 || c.open != 0 {
			t.Fatalf("the %s connection is reclaimed with %d and %d messages, %d unread, open %b",
				name, c.A().InboxLen(), c.B().InboxLen(), c.unread, c.open)
		}
	}
	if len(pool.calls) != 1 || pool.calls[0] != call || len(pool.replies) != 1 || pool.replies[0] != reply {
		t.Fatalf("the pool holds calls %v and replies %v, want the unread call and reply", pool.calls, pool.replies)
	}
	if retained.B().InboxLen() != 1 {
		t.Fatal("Reclaim emptied a connection that retains frames")
	}
	got := map[*Conn]bool{cp.Get(k, SharedMemLink): true, cp.Get(k, SharedMemLink): true}
	if !got[cut] || !got[parked] {
		t.Fatal("Get does not hand the reclaimed connections out again")
	}
	if cp.Get(k, SharedMemLink) == retained {
		t.Fatal("Get hands out a connection that retains frames")
	}
	// The backend that waited on parked went with the reset: what comes in
	// now stays in the inbox for the connection's next user.
	parked.A().Post(pool.GetCall())
	k.Run()
	if parked.B().InboxLen() != 1 {
		t.Fatalf("the reused connection's inbox holds %d messages, want 1", parked.B().InboxLen())
	}
}
