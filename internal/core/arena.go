package core

import (
	"sync"

	"repro/internal/balancer"
	"repro/internal/devsched"
	"repro/internal/gpu"
	"repro/internal/interpose"
	"repro/internal/packer"
	"repro/internal/rpcproto"
	"repro/internal/sim"
	"repro/internal/sim/shard"
	"repro/internal/workload"
)

// Arena lends the clusters of a sweep warm slabs: a kernel, and the free
// lists of what ran on it — frames, connections, backend sessions,
// application frontends with the processes they hold, spare GPU contexts,
// the supernode and its control plane — so that a worker running hundreds
// of short simulations stops paying each one's ramp-up allocations. New
// takes a slab (Config.Arena) and Cluster.Close gives it back, reset, with
// whatever a RunUntil horizon left live taken back to its free list. Reuse
// is invisible: a reset kernel runs the event sequence of a fresh one, and a
// reused object starts as a new one would. The free lists belong to the arena, so a dropped arena is garbage.
//
// It is a mutex-guarded free list rather than a sync.Pool: a returned slab
// is always handed out again, never dropped by the GC, so the reuse path runs
// on every sweep instead of probabilistically. The zero Arena is empty and
// safe for concurrent use.
type Arena struct {
	mu   sync.Mutex
	free []*slab
}

// slab is one kernel and the free lists of what runs on it: the frame pool,
// connections, GPU contexts the kernel's devices share, idle sessions,
// frontends and arrival daemons, and devices, device schedulers and packers,
// which New re-initialises to any fleet. An arena's slab also keeps the
// control plane New re-initialises — the kernel's environment, the
// coordinator over it alone, the Affinity Mapper — and lists in made every
// session, frontend and arrival it made, for put to take back.
type slab struct {
	k         *sim.Kernel
	lent      bool               // an arena's
	env       *shardEnv          // the kernel's, its apps array kept
	coord     *shard.Coordinator // over k alone, which leaves it no state of its own
	mapper    *balancer.Mapper   // the last Strings or Rain cluster's
	pool      rpcproto.Pool
	conns     rpcproto.ConnPool
	spares    gpu.Spares
	sessions  []*session
	frontends []*frontend
	arrivals  []*arrival
	devices   []*gpu.Device
	scheds    []*devsched.Scheduler
	packers   []*packer.Packer
	tables    tables // the last cluster's
	made      struct {
		sessions  []*session
		frontends []*frontend
		arrivals  []*arrival
	}
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
func (a *Arena) get() *slab {
	a.mu.Lock()
	defer a.mu.Unlock()
	s := take(&a.free)
	if s.k == nil {
		s.k, s.lent = sim.NewKernel(0), true
		s.env = &shardEnv{slab: s}
		s.coord = shard.NewCoordinator([]*sim.Kernel{s.k}, 0, 0)
	}
	return s
}

// put takes a slab back once its cluster is closed: the kernel is reset,
// which unwinds the processes the run left, and the sessions, frontends and
// connections still live go back to their free lists.
func (a *Arena) put(s *slab) {
	s.k.Reset(0)
	s.takeBack()
	a.mu.Lock()
	defer a.mu.Unlock()
	a.free = append(a.free, s)
}

// takeBack returns to the free lists every arrival daemon and the sessions,
// frontends and connections a run left live, cut off at a RunUntil horizon or
// stuck. Their daemons are gone with the kernel's reset, their processes are
// released, the frames in the connections' inboxes go back to the pool, and
// what may still name them — a selection latch, a multi-threaded
// application's threads — is dropped rather than reused.
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
			x.serving = serving{}
			x.idle = true
			s.sessions = append(s.sessions, x)
		}
	}
	for _, f := range s.made.frontends {
		if !f.idle {
			f.d = sim.Daemon{}
			f.rt.Release()
			f.ip = interpose.Interposer{}
			f.steps = workload.Steps{}
			f.begun = false
			f.idle = true
			s.frontends = append(s.frontends, f)
		}
	}
}
