package rpcproto

import (
	"testing"

	"repro/internal/sim"
)

// TestPoolOneWayFloodStaysAtCap: a kernel that only ever receives frames — it
// hosts backends and no frontends, or the reverse — keeps poolCap of each kind
// and drops the rest, and what it kept comes back zeroed.
func TestPoolOneWayFloodStaysAtCap(t *testing.T) {
	var p Pool
	for i := 0; i < 3*poolCap; i++ {
		p.FreeCall(&Call{Seq: uint64(i), KernelName: "k"})
		p.FreeReply(&Reply{Seq: uint64(i), Err: "e"})
	}
	if len(p.calls) != poolCap || len(p.replies) != poolCap {
		t.Fatalf("pool holds %d calls and %d replies after a flood, want %d of each", len(p.calls), len(p.replies), poolCap)
	}
	for i := 0; i < poolCap; i++ {
		if c := p.GetCall(); *c != (Call{}) {
			t.Fatalf("pooled call %d not zeroed: %+v", i, c)
		}
		if r := p.GetReply(); *r != (Reply{}) {
			t.Fatalf("pooled reply %d not zeroed: %+v", i, r)
		}
	}
	if len(p.calls) != 0 || len(p.replies) != 0 {
		t.Fatalf("pool holds %d calls and %d replies after handing out %d of each", len(p.calls), len(p.replies), poolCap)
	}
	p.FreeCall(nil)
	p.FreeReply(nil)
	if len(p.calls) != 0 || len(p.replies) != 0 {
		t.Fatal("freeing nil grew the pool")
	}
}

// TestNilPoolAllocatesAndDrops: the nil pool is the disabled pool.
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
}

// TestRetainFramesDisablesBothSides: a connection hands out the pools it was
// given, one per side, until either endpoint asks it to retain frames; from
// then on both sides — endpoints made before and after alike — get the nil
// pool, and the kernels' pools themselves are untouched.
func TestRetainFramesDisablesBothSides(t *testing.T) {
	k := sim.NewKernel(1)
	if (Endpoint{}).Pool() != nil || NewConn(k, LinkSpec{}).A().Pool() != nil {
		t.Fatal("the zero endpoint and a conn given no pools must hand out the nil pool")
	}
	var pa, pb Pool
	pa.FreeCall(&Call{})
	for _, retainer := range []func(*Conn) Endpoint{(*Conn).A, (*Conn).B} {
		conn := NewConn(k, LinkSpec{})
		conn.SetPools(&pa, &pb)
		a, b := conn.A(), conn.B()
		if a.Pool() != &pa || b.Pool() != &pb {
			t.Fatal("endpoints did not hand out their own side's pool")
		}
		retainer(conn).RetainFrames()
		for name, ep := range map[string]Endpoint{"A": a, "B": b, "new A": conn.A(), "new B": conn.B()} {
			if ep.Pool() != nil {
				t.Fatalf("endpoint %s still hands out a pool on a retaining connection", name)
			}
		}
	}
	if len(pa.calls) != 1 || len(pb.calls) != 0 {
		t.Fatal("RetainFrames disturbed the kernels' pools")
	}
}
