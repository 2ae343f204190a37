// Package shard composes several sim.Kernel instances into one simulation
// under a single virtual clock, using classic conservative (Chandy–Misra–
// Bryant-style) synchronization: inside a time window [T, T+lookahead) each
// shard may advance without looking at the others, because no cross-shard
// interaction can take effect in under the lookahead — the minimum
// cross-shard event latency, which for the Strings topology is the remoting
// fabric's RPC propagation delay. The whole composition runs on one
// goroutine, the caller of Run: a window steps its active shards one after
// another in ascending shard id.
//
// The merged event order is a pure function of the virtual state:
//
//   - Every cross-shard effect travels as a mailbox message carrying an
//     absolute delivery instant at least one lookahead in the sender's
//     future. A sender collects its messages in send order.
//   - Shards only exchange messages between windows, with every shard
//     stopped. A destination's mailbox is kept in (time, src shard id,
//     per-src sequence) order and injected into its kernel from the front,
//     and the kernel's timer facility preserves registration order at equal
//     instants.
//   - Inside a window a shard advances only its own kernel, so what it
//     computes does not depend on where in the window's stepping order it
//     sits.
//
// The window loop degenerates gracefully at both extremes. When every shard
// is idle the frontier T jumps straight to the next event anywhere, so
// globally quiescent stretches cost one iteration regardless of length (the
// analytic fast-forward property, preserved across the composition). When
// exactly one shard has work in the frontier window, the coordinator runs
// it solo far beyond one lookahead — up to the other shards' horizon — with
// a stop-on-first-send interrupt: the moment the solo shard emits a
// cross-shard message its run ends at that (event-order-determined, hence
// deterministic) point and the window logic re-evaluates.
package shard

import (
	"fmt"

	"repro/internal/sim"
)

// none marks "no pending activation" in frontier computations; it is also
// the Run limit (matching the kernel's own maximum instant).
const none = sim.Time(1<<62 - 1)

// message is one cross-shard effect, a timer of the destination kernel at
// instant at: fn runs or, in the closure-free form, v is put on q. seq is the per-source send sequence that breaks same-instant ties.
type message struct {
	at       sim.Time
	src, dst int
	seq      uint64
	fn       func()
	q        *sim.Queue[any]
	v        any
}

// arm schedules the effect on k, d from k's present.
func (m *message) arm(k *sim.Kernel, d sim.Time) {
	if m.fn != nil {
		k.After(d, m.fn)
	} else {
		k.AfterPut(d, m.q, m.v)
	}
}

// before is the mailbox order: (at, src, seq). No two messages compare equal.
func (m *message) before(o *message) bool {
	return m.at < o.at || m.at == o.at && (m.src < o.src || m.src == o.src && m.seq < o.seq)
}

// mailbox is one destination's undelivered messages, buf[head:], in before
// order; inject delivers from the front by advancing head.
type mailbox struct {
	buf  []message
	head int
}

// put inserts m in order, searching from the back: sources drain in send
// order with instants that rarely decrease, so m almost always goes last.
func (mb *mailbox) put(m message) {
	if mb.head > 0 && len(mb.buf) == cap(mb.buf) {
		// Reclaim the delivered prefix rather than grow past it.
		n := copy(mb.buf, mb.buf[mb.head:])
		clear(mb.buf[n:])
		mb.buf, mb.head = mb.buf[:n], 0
	}
	mb.buf = append(mb.buf, m) // mailbox growth is amortized, bounded by peak undelivered messages
	x := len(mb.buf) - 1
	for ; x > mb.head && m.before(&mb.buf[x-1]); x-- {
		mb.buf[x] = mb.buf[x-1]
	}
	mb.buf[x] = m
}

// Shard is one member kernel's handle. Code running on the shard's kernel
// uses Send to schedule effects on other shards; everything else is driven
// by the Coordinator.
type Shard struct {
	// K is the shard's kernel. All simulated state owned by the shard lives
	// on it; the coordinator is the only party that drives it.
	K *sim.Kernel

	id     int
	co     *Coordinator
	seqCtr uint64
	outbox []message

	// soloActive arms the stop-on-first-send interrupt while the shard runs
	// in solo mode; Send clears it and stops the kernel.
	soloActive bool
}

// Send schedules fn to run on shard dst's kernel at the sender's now+delay.
// fn executes in the destination kernel's timer context and must not block
// (queue Puts, event Fires, signal Notifies and process spawns are all
// fine). Sends to the shard itself are plain kernel timers with no
// lookahead constraint; cross-shard sends must respect the coordinator's
// lookahead — a shorter delay would let a message land in a past the
// destination has already simulated, and panics immediately instead of
// corrupting the run. Like everything here, Send is for the one goroutine
// that runs the composition.
func (s *Shard) Send(dst int, delay sim.Time, fn func()) {
	s.post(dst, delay, message{fn: fn})
}

// SendPut is Send(dst, delay, func() { q.Put(v) }) without the closure, as
// sim.Kernel.AfterPut is to After: the form for request-path traffic.
func (s *Shard) SendPut(dst int, delay sim.Time, q *sim.Queue[any], v any) {
	s.post(dst, delay, message{q: q, v: v})
}

// post arms a self-send at once and stamps any other message into the outbox.
func (s *Shard) post(dst int, delay sim.Time, m message) {
	if dst == s.id {
		m.arm(s.K, delay)
		return
	}
	if dst < 0 || dst >= len(s.co.shards) {
		panic(fmt.Sprintf("shard: send from %d to unknown shard %d", s.id, dst))
	}
	if delay < s.co.look {
		panic(fmt.Sprintf("shard: send from %d to %d with delay %v below the lookahead %v",
			s.id, dst, delay, s.co.look))
	}
	s.seqCtr++
	m.at, m.src, m.dst, m.seq = s.K.Now()+delay, s.id, dst, s.seqCtr
	s.outbox = append(s.outbox, m) // outbox growth is amortized, bounded by one window's sends
	if s.soloActive {
		// First cross-shard send of a solo run: the solo horizon was
		// computed assuming no outbound traffic, so stop here (a point
		// fixed by event order, not wall time) and let the coordinator
		// re-evaluate with the message on the books.
		s.soloActive = false
		s.K.Stop()
	}
}

// Stats are the coordinator's window-protocol counters, for observability
// and benchmark reporting. All values depend only on the virtual schedule.
type Stats struct {
	// Windows counts windows in which two or more shards advanced.
	Windows uint64
	// SoloRuns counts solo-mode stretches: exactly one shard had work in
	// the frontier window and ran alone past the window bound.
	SoloRuns uint64
	// SoloStops counts solo runs cut short by their first cross-shard send.
	SoloStops uint64
	// Messages counts cross-shard messages delivered.
	Messages uint64
	// MaxActive is the largest active set of any window.
	MaxActive int
	// Lookahead echoes the composition's lookahead.
	Lookahead sim.Time
}

// Coordinator drives a set of shard kernels under the conservative window
// protocol, on the goroutine that calls Run/RunUntil. It is not safe for
// concurrent use.
type Coordinator struct {
	shards  []*Shard
	look    sim.Time
	pending []mailbox // undelivered messages, per destination
	stats   Stats

	// Scratch reused across windows; a window's active set is a prefix of active.
	nexts  []sim.Time
	active []int
}

// NewCoordinator builds a composition over the given kernels (one shard
// each, in order). lookahead is the minimum cross-shard event latency and,
// with two or more kernels, must be at least 1µs — a zero lookahead admits
// no conservative window. A single kernel has no peers: every Send is a
// kernel timer and Run is that kernel's RunUntil. The third argument is
// ignored: benchmark/drivers.go still passes a worker count.
func NewCoordinator(kernels []*sim.Kernel, lookahead sim.Time, _ int) *Coordinator {
	if len(kernels) == 0 {
		panic("shard: no kernels")
	}
	if len(kernels) > 1 && lookahead < 1 {
		panic(fmt.Sprintf("shard: lookahead %v must be at least 1µs", lookahead))
	}
	c := &Coordinator{
		look:    lookahead,
		pending: make([]mailbox, len(kernels)),
		nexts:   make([]sim.Time, len(kernels)),
		active:  make([]int, len(kernels)),
		stats:   Stats{Lookahead: lookahead},
	}
	for i, k := range kernels {
		c.shards = append(c.shards, &Shard{K: k, id: i, co: c})
	}
	return c
}

// Shard returns the i'th shard handle.
func (c *Coordinator) Shard(i int) *Shard { return c.shards[i] }

// Stats returns the window-protocol counters accumulated so far.
func (c *Coordinator) Stats() Stats { return c.stats }

// Close does nothing: benchmark/drivers.go still calls it.
func (c *Coordinator) Close() {}

// Run advances the composition until it is globally quiescent: no shard has
// a pending activation and no cross-shard message is undelivered.
func (c *Coordinator) Run() { c.run(none) }

// RunUntil advances the composition through every event at or before limit,
// then clamps each shard's clock the way sim.Kernel.RunUntil does — a shard
// with work remaining beyond the limit ends with its clock at the limit.
func (c *Coordinator) RunUntil(limit sim.Time) {
	c.run(limit)
	for _, s := range c.shards {
		s.K.RunUntil(limit)
	}
}

// next computes shard i's earliest relevant instant: its kernel's next
// pending activation or the front of its mailbox.
func (c *Coordinator) next(i int) sim.Time {
	t := none
	if et, ok := c.shards[i].K.NextEventTime(); ok {
		t = et
	}
	if mb := &c.pending[i]; mb.head < len(mb.buf) && mb.buf[mb.head].at < t {
		t = mb.buf[mb.head].at
	}
	return t
}

// run is the conservative window loop.
func (c *Coordinator) run(limit sim.Time) {
	if len(c.shards) == 1 {
		// No peers, so no windows: every Send was a kernel timer.
		c.shards[0].K.RunUntil(limit)
		return
	}
	for {
		// Frontier: the earliest instant anything can happen anywhere.
		minT := none
		for i := range c.shards {
			t := c.next(i)
			c.nexts[i] = t
			if t < minT {
				minT = t
			}
		}
		if minT == none || minT > limit {
			return
		}
		// The conservative window [minT, minT+lookahead): no message sent
		// inside it can be delivered inside it.
		horizon := minT + c.look - 1
		if horizon > limit {
			horizon = limit
		}
		nActive := 0
		for i, t := range c.nexts {
			if t <= horizon {
				c.active[nActive] = i
				nActive++
			}
		}
		if nActive == 1 {
			c.runSolo(c.active[0], limit)
			continue
		}
		for _, i := range c.active[:nActive] {
			c.inject(i, horizon)
		}
		for _, i := range c.active[:nActive] {
			c.shards[i].K.RunUntil(horizon)
		}
		// Collect outboxes in ascending shard id (the active set is built
		// ascending), preserving per-source send order.
		for _, i := range c.active[:nActive] {
			c.drain(c.shards[i])
		}
		c.stats.Windows++
		if nActive > c.stats.MaxActive {
			c.stats.MaxActive = nActive
		}
	}
}

// runSolo advances a single shard far past the window bound: with every
// other shard quiescent until minOther, shard i cannot be affected before
// minOther+lookahead, so it may run alone to that horizon — unless it emits
// a cross-shard message first, which stops the run at the send.
func (c *Coordinator) runSolo(i int, limit sim.Time) {
	minOther := none
	for j := range c.shards {
		if j != i && c.nexts[j] < minOther {
			minOther = c.nexts[j]
		}
	}
	soloH := limit
	if minOther != none && minOther+c.look-1 < soloH {
		soloH = minOther + c.look - 1
	}
	s := c.shards[i]
	c.inject(i, soloH)
	s.soloActive = true
	s.K.RunUntil(soloH)
	if s.soloActive {
		s.soloActive = false
	} else {
		c.stats.SoloStops++
	}
	c.stats.SoloRuns++
	c.drain(s)
}

// inject delivers every pending message for dst due at or before horizon
// into the destination kernel; later messages stay pending. Kernel timers run
// same-instant callbacks in registration order, so the mailbox order of the
// due prefix is the delivery order.
func (c *Coordinator) inject(dst int, horizon sim.Time) {
	mb := &c.pending[dst]
	k := c.shards[dst].K
	now := k.Now()
	x := mb.head
	for ; x < len(mb.buf) && mb.buf[x].at <= horizon; x++ {
		m := &mb.buf[x]
		if m.at < now {
			// The conservative invariant (receiver clock < any in-flight
			// delivery instant) was violated — a coordinator bug, never a
			// runtime condition.
			panic(fmt.Sprintf("shard: delivery to %d at %v is in its past (now %v)",
				dst, m.at, now))
		}
		m.arm(k, m.at-now)
		*m = message{} // drop the references: what was delivered can be collected
	}
	c.stats.Messages += uint64(x - mb.head)
	if x == len(mb.buf) {
		mb.buf, x = mb.buf[:0], 0
	}
	mb.head = x
}

// drain moves a shard's outbox into the destinations' mailboxes.
func (c *Coordinator) drain(s *Shard) {
	for x := range s.outbox {
		c.pending[s.outbox[x].dst].put(s.outbox[x])
		s.outbox[x] = message{}
	}
	s.outbox = s.outbox[:0]
}
