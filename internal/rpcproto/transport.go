package rpcproto

import (
	"repro/internal/sim"
)

// LinkSpec models one communication hop: fixed propagation latency plus a
// serialization cost of size/Bandwidth charged to the sender. Bandwidth 0
// means infinite (no per-byte cost).
type LinkSpec struct {
	Latency   sim.Time
	Bandwidth float64 // bytes per microsecond
}

// Link presets matching the paper's setups.
var (
	// SharedMemLink is the frontend↔backend shared-memory RPC channel used
	// when application and GPU live on the same node (~12 GB/s host
	// memcpy).
	SharedMemLink = LinkSpec{Latency: 2 * sim.Microsecond, Bandwidth: 12000}

	// RemoteLink is the dedicated inter-node hop used for GPU remoting.
	// Latency is Gigabit-Ethernet-class; bandwidth is calibrated to 2 GB/s
	// so that a remote GPU costs a few times a local one — the paper
	// explicitly treats remote GPUs "much like NUMA memory is treated in
	// high end servers", and a literal 125 MB/s pipe would instead make
	// remote devices two orders of magnitude worse than the testbed
	// behaviour the paper reports. The remoting ablation bench sweeps this
	// bandwidth.
	RemoteLink = LinkSpec{Latency: 60 * sim.Microsecond, Bandwidth: 2000}
)

// TransferTime returns the sender-side serialization cost of size bytes.
func (l LinkSpec) TransferTime(size int64) sim.Time {
	if l.Bandwidth <= 0 || size <= 0 {
		return 0
	}
	return sim.Time(float64(size)/l.Bandwidth + 0.5)
}

// Msg is a message crossing a Conn: a *Call or a *Reply. It is an alias (not
// a defined type) so the transport's queues are sim.Queue[any] and deliveries
// can ride the kernel's closure-free AfterPut path.
type Msg = interface{}

// Router delivers v to q, a queue of kernel dst, delay after the sender's
// present: shard.Shard's SendPut, for a connection whose two sides run on
// different kernels. delay must be at least the router's lookahead.
type Router interface {
	SendPut(dst int, delay sim.Time, q *sim.Queue[any], v any)
}

// Conn is a simulated bidirectional message connection between a frontend
// (side A) and a backend (side B) crossing one link. The two inboxes are part
// of it, so a connection is one allocation.
type Conn struct {
	k     *sim.Kernel
	link  LinkSpec
	toB   sim.Queue[Msg]
	toA   sim.Queue[Msg]
	route [2]Router // side A's and side B's, when they run on different kernels
	peer  [2]int    // the kernel each side's route delivers to
	pool  *Pool     // the frame pool both endpoints hand out; nil allocates and drops

	home   *ConnPool // where the connection goes once both sides Close it; nil: nowhere
	made   *Conn     // the connection its pool made before it
	open   uint8     // bit i: side i has not closed
	unread int       // messages posted and not yet received
}

// ConnPool recycles the connections one kernel opens, whether their other side
// runs on that kernel or on another. The zero ConnPool is empty.
type ConnPool struct {
	free []*Conn
	made *Conn // the last connection Get made that may come back, linking the others
}

// Get returns a connection over link on k, as NewConn would: a closed one,
// inboxes and all, with its last pool and no route, or a new one.
func (cp *ConnPool) Get(k *sim.Kernel, link LinkSpec) *Conn {
	n := len(cp.free)
	if n == 0 {
		c := NewConn(k, link)
		c.home, c.open = cp, 3
		c.made, cp.made = cp.made, c
		return c
	}
	c := cp.free[n-1]
	cp.free = cp.free[:n-1]
	c.link, c.open, c.route = link, 3, [2]Router{}
	return c
}

// Reclaim takes back, once the kernels of both sides have been reset, every
// connection Get made that a run left out: open at a RunUntil horizon, or
// closed with a message on its way. Each comes back as Close would leave it,
// its inboxes emptied into its frame pool and keeping their arrays. A
// connection that retains frames is its pool's no more.
func (cp *ConnPool) Reclaim() {
	cp.free = cp.free[:0]
	for p := &cp.made; *p != nil; {
		c := *p
		if c.home == nil { // RetainFrames: a frame may still be retransmitted
			*p, c.made = c.made, nil
			continue
		}
		drain(&c.toB, c.pool)
		drain(&c.toA, c.pool)
		c.open, c.unread = 0, 0
		cp.free = append(cp.free, c) // bounded by peak open connections
		p = &c.made
	}
}

// drain empties an inbox into the connection's pool, forgetting its waiters.
func drain(q *sim.Queue[Msg], p *Pool) {
	for m, ok := q.TryGet(); ok; m, ok = q.TryGet() {
		switch f := m.(type) {
		case *Call:
			p.FreeCall(f)
		case *Reply:
			p.FreeReply(f)
		}
	}
	q.Reset()
}

// NewConn creates a connection over the given link on kernel k, with no frame
// pool and no route.
func NewConn(k *sim.Kernel, link LinkSpec) *Conn { return &Conn{k: k, link: link} }

// SetPool installs the frame pool both endpoints hand out: that of the kernel
// that opened the connection, so every frame goes back where it came from.
func (c *Conn) SetPool(p *Pool) { c.pool = p }

// SetRoute makes the connection cross kernels: side A, on ra's kernel, sends
// through ra to kernel b, and side B through rb to kernel a, each into its
// peer's inbox, instead of a timer of the connection's kernel.
func (c *Conn) SetRoute(ra Router, a int, rb Router, b int) {
	c.route, c.peer = [2]Router{ra, rb}, [2]int{b, a}
}

// Endpoint is one side of a Conn.
type Endpoint struct {
	conn *Conn
	out  *sim.Queue[Msg]
	in   *sim.Queue[Msg]
	side int // 0 for A, 1 for B
}

// A returns the frontend-side endpoint.
func (c *Conn) A() Endpoint { return Endpoint{conn: c, out: &c.toB, in: &c.toA} }

// B returns the backend-side endpoint.
func (c *Conn) B() Endpoint { return Endpoint{conn: c, out: &c.toA, in: &c.toB, side: 1} }

// Send transmits msg plus payload bulk bytes. The sender is charged the
// marshalling and serialization cost; the message is delivered to the peer
// after the link latency. Messages sent from one endpoint arrive in order
// (on cross-kernel conns the mailbox breaks equal instants by send sequence).
func (e Endpoint) Send(p *sim.Proc, msg Msg, payload int64) {
	if cost := e.Cost(msg, payload); cost > 0 {
		p.Sleep(cost)
	}
	e.Post(msg)
}

// Cost is Send's charge to the sender.
func (e Endpoint) Cost(msg Msg, payload int64) sim.Time {
	return e.conn.link.TransferTime(int64(wireSize(msg)) + payload)
}

// Post is Send once the sender has been charged the Cost.
func (e Endpoint) Post(msg Msg) {
	c := e.conn
	c.unread++
	if r := c.route[e.side]; r != nil {
		r.SendPut(c.peer[e.side], c.link.Latency, e.out, msg)
		return
	}
	c.k.AfterPut(c.link.Latency, e.out, msg)
}

// Pool returns the connection's frame pool: nil, the valid disabled pool, for
// the zero Endpoint and for a connection without one.
func (e Endpoint) Pool() *Pool {
	if e.conn == nil {
		return nil
	}
	return e.conn.pool
}

// RetainFrames makes both endpoints hand out the nil pool from here on and
// keeps the connection out of its ConnPool: a retransmitted frame outlives any
// round trip. The recovery layer calls it before a backend can ask.
func (e Endpoint) RetainFrames() { e.conn.pool, e.conn.home = nil, nil }

// Close ends this side's use of the connection. A pooled one goes back once
// both sides have closed it with every message received, so nothing of this
// use reaches the next; one closed with a message on its way is left to the GC.
func (e Endpoint) Close() {
	c := e.conn
	c.open &^= 1 << e.side
	if c.open == 0 && c.unread == 0 && c.home != nil {
		c.home.free = append(c.home.free, c) // bounded by peak open connections
	}
}

// Recv blocks until the next message arrives.
func (e Endpoint) Recv(p *sim.Proc) Msg {
	e.conn.unread-- // this side is open while it waits, so Close cannot see it early
	return e.in.Get(p)
}

// Take is Recv for a daemon (sim.Queue.Take).
func (e Endpoint) Take(d *sim.Daemon) (Msg, bool) { return e.got(e.in.Take(d)) }

// TakeTimeout is Take with a timeout (sim.Queue.TakeTimeout). It is the
// interposer's per-call failure detector: a backend that died mid-call never
// replies, and the timeout is the only signal the frontend gets.
func (e Endpoint) TakeTimeout(d *sim.Daemon, dl sim.Time) (m Msg, ok, expired bool) {
	m, ok, expired = e.in.TakeTimeout(d, dl)
	e.got(m, ok)
	return m, ok, expired
}

// got books a message received, if ok.
func (e Endpoint) got(m Msg, ok bool) (Msg, bool) {
	if ok {
		e.conn.unread--
	}
	return m, ok
}

// InboxLen returns the number of delivered, unconsumed messages.
func (e Endpoint) InboxLen() int { return e.in.Len() }

// wireSize measures the encoded frame size of a message without encoding it
// (it is charged on every simulated Send, so it must not allocate); a codec
// test pins these arithmetic sizes to the real encoder's output.
func wireSize(m Msg) int {
	switch v := m.(type) {
	case *Call:
		return CallWireSize(v)
	case *Reply:
		return ReplyWireSize(v)
	default:
		return 64
	}
}
