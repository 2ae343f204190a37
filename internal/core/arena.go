package core

import (
	"sync"

	"repro/internal/balancer"
	"repro/internal/devsched"
	"repro/internal/gpu"
	"repro/internal/packer"
	"repro/internal/rpcproto"
	"repro/internal/sim"
	"repro/internal/sim/shard"
	"repro/internal/trace"
	"repro/internal/workload"
)

// arena lends clusters their kernels as warm slabs, so that hundreds of short
// simulations stop paying each one's ramp-up allocations. Reuse is invisible:
// a reset kernel runs the event sequence of a fresh one, and a reused object
// starts as a new one would. It is a mutex-guarded free list rather than a
// sync.Pool, so that the reuse path runs on every simulation, not by luck;
// the zero arena is empty.
type arena struct {
	mu   sync.Mutex
	free []*slab
}

// shared is the arena New builds every cluster on. It holds as many slabs as
// the process ever ran kernels at once.
var shared arena

// slab is one kernel and the free lists of what runs on it — frames,
// connections, GPU contexts, sessions, frontends, arrival daemons, devices,
// device schedulers and packers — with a coordinator over the kernel alone, a
// mapper, and in made every session, frontend and arrival it made, for put to
// take back. While a cluster runs on the kernel, the slab is its environment
// there: shard handle, recorder, result sink and launched applications.
type slab struct {
	k         *sim.Kernel
	coord     *shard.Coordinator // over k alone, which leaves it no state of its own
	mapper    *balancer.Mapper   // the cluster's, on its first kernel's slab
	pool      rpcproto.Pool
	conns     rpcproto.ConnPool
	spares    gpu.Spares
	sessions  []*session
	frontends []*frontend
	arrivals  []*arrival
	devices   []*gpu.Device
	scheds    []*devsched.Scheduler
	packers   []*packer.Packer
	tables    tables // kept by the first kernel's slab between clusters
	made      struct {
		sessions  []*session
		frontends []*frontend
		arrivals  []*arrival
	}

	c   *Cluster
	idx int
	sh  *shard.Shard
	rec *trace.Recorder

	results *RunResult
	appSeq  int
	apps    []appTenant // in launch order, which is app-id order
}

// take pops an idle object off a free list, or makes a new one.
func take[T any](free *[]*T) *T {
	n := len(*free) - 1
	if n < 0 {
		return new(T)
	}
	x := (*free)[n]
	*free = (*free)[:n]
	return x
}

// get lends a slab: an idle one, or a new one over a new kernel.
func (a *arena) get() *slab {
	a.mu.Lock()
	defer a.mu.Unlock()
	s := take(&a.free)
	if s.k == nil {
		s.k = sim.NewKernel(0)
		s.coord = shard.NewCoordinator([]*sim.Kernel{s.k}, 0, 0)
		s.mapper = balancer.NewMapper(balancer.NewDST(nil), nil)
	}
	return s
}

// put takes a slab back once its cluster is closed: the kernel is reset,
// which unwinds the processes the run left, and the sessions, frontends and
// connections still live go back to their free lists.
func (a *arena) put(s *slab) {
	s.k.Reset(0)
	s.takeBack()
	s.c, s.sh, s.rec, s.results = nil, nil, nil, nil // the closed cluster's; the result is the caller's
	a.mu.Lock()
	defer a.mu.Unlock()
	a.free = append(a.free, s)
}

// takeBack returns to the free lists every arrival daemon and the sessions,
// frontends and connections a run left live, cut off at a RunUntil horizon or
// stuck: their daemons are gone with the kernel's reset, their processes are
// released, and their frames freed as rpcproto.Pool's rules for a cut run
// say. A multi-threaded application's threads are dropped rather than reused.
func (s *slab) takeBack() {
	s.conns.Reclaim()
	for _, a := range s.made.arrivals {
		a.d, a.times = sim.Daemon{}, nil
	}
	s.arrivals = append(s.arrivals[:0], s.made.arrivals...)
	for _, x := range s.made.sessions {
		if !x.idle {
			x.d = sim.Daemon{}
			x.rain.rt.Release()
			x.pool.FreeReply(x.reply) // the frames in hand: its call, and a reply not yet posted
			x.pool.FreeCall(x.call)
			x.serving = serving{}
			x.idle = true
			s.sessions = append(s.sessions, x)
		}
	}
	for _, f := range s.made.frontends {
		if !f.idle {
			f.d = sim.Daemon{}
			f.rt.Release()
			f.ip.Cut()
			f.steps = workload.Steps{}
			f.begun = false
			f.idle = true
			s.frontends = append(s.frontends, f)
		}
	}
}
