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

// CrossDeliver puts msg on q, a queue of the peer side's kernel, after the
// link latency. It is how a cross-kernel Conn hands a delivery to an outside
// scheduler (the shard coordinator's mailbox SendPut); the latency must be at
// least the coordinator's lookahead for the handoff to be causally valid.
type CrossDeliver func(latency sim.Time, q *sim.Queue[Msg], msg Msg)

// Conn is a simulated bidirectional message connection between a frontend
// (side A) and a backend (side B) crossing one link. The two inboxes are part
// of it, so a connection is one allocation.
type Conn struct {
	k     *sim.Kernel
	link  LinkSpec
	toB   sim.Queue[Msg]
	toA   sim.Queue[Msg]
	xToB  CrossDeliver // non-nil when the two sides live on different kernels
	xToA  CrossDeliver
	pools [2]*Pool // side A's and side B's frame pool; nil allocates and drops

	home   *ConnPool // where the connection goes once both sides Close it; nil: nowhere
	open   uint8     // bit i: side i has not closed
	unread int       // messages posted and not yet received
}

// ConnPool recycles the connections of one kernel. The zero ConnPool is empty.
type ConnPool struct{ free []*Conn }

// Get returns a same-kernel connection over link, as NewConn would: a closed
// one, inboxes and all, with the pools the last SetPools left, or a new one.
func (cp *ConnPool) Get(k *sim.Kernel, link LinkSpec) *Conn {
	n := len(cp.free)
	if n == 0 {
		c := NewConn(k, link)
		c.home, c.open = cp, 3
		return c
	}
	c := cp.free[n-1]
	cp.free = cp.free[:n-1]
	c.link, c.open = link, 3
	return c
}

// NewConn creates a connection over the given link, with no frame pools.
func NewConn(k *sim.Kernel, link LinkSpec) *Conn {
	return NewCrossConn(k, link, nil, nil)
}

// NewCrossConn creates a connection whose A side lives on kernel kA and B
// side on another kernel. Each inbox queue is its reader's, and sends route
// through the per-direction deliver hooks, which put on the reader's kernel,
// instead of a local timer (NewConn: one kernel and no hooks).
func NewCrossConn(kA *sim.Kernel, link LinkSpec, toB, toA CrossDeliver) *Conn {
	return &Conn{k: kA, link: link, xToB: toB, xToA: toA}
}

// SetPools installs the frame pools the endpoints hand out: that of the kernel
// side A runs on and that of side B's kernel (one pool when they share it).
func (c *Conn) SetPools(a, b *Pool) { c.pools = [2]*Pool{a, b} }

// Endpoint is one side of a Conn.
type Endpoint struct {
	conn *Conn
	out  *sim.Queue[Msg]
	in   *sim.Queue[Msg]
	x    CrossDeliver // non-nil when out lives on the peer's kernel
	side int          // 0 for A, 1 for B: the endpoint's index in conn.pools
}

// A returns the frontend-side endpoint.
func (c *Conn) A() Endpoint { return Endpoint{conn: c, out: &c.toB, in: &c.toA, x: c.xToB} }

// B returns the backend-side endpoint.
func (c *Conn) B() Endpoint {
	return Endpoint{conn: c, out: &c.toA, in: &c.toB, x: c.xToA, side: 1}
}

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
	e.conn.unread++
	if e.x != nil {
		e.x(e.conn.link.Latency, e.out, msg)
		return
	}
	e.conn.k.AfterPut(e.conn.link.Latency, e.out, msg)
}

// Pool returns the frame pool of the kernel this side runs on: nil, the valid
// disabled pool, for the zero Endpoint and for a connection without pools.
func (e Endpoint) Pool() *Pool {
	if e.conn == nil {
		return nil
	}
	return e.conn.pools[e.side]
}

// RetainFrames makes both endpoints hand out the nil pool from here on and
// keeps the connection out of its ConnPool: a retransmitted frame outlives any
// round trip. The recovery layer calls it before a backend can ask.
func (e Endpoint) RetainFrames() {
	e.conn.pools = [2]*Pool{}
	e.conn.home = nil
}

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
