package core

import (
	"sync"

	"repro/internal/gpu"
	"repro/internal/interpose"
	"repro/internal/rpcproto"
	"repro/internal/sim"
	"repro/internal/workload"
)

// Arena lends the clusters of a sweep warm slabs: a kernel, and the free
// lists of what ran on it — frames, connections, backend sessions,
// application frontends with the processes they hold, spare GPU contexts —
// so that a worker running hundreds of short simulations stops paying each
// one's ramp-up allocations. New takes a slab (Config.Arena) and
// Cluster.Close gives it back, reset, with whatever a RunUntil horizon left
// live taken back to its free list. Reuse is invisible: a reset kernel runs
// the event sequence of a fresh one, and a reused object starts as a new one
// would. The free lists belong to the arena, so a dropped arena is garbage.
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
// connections, GPU contexts the kernel's devices share, and idle sessions and
// frontends. An arena's slab also lists in made every session and frontend
// it made, for put to take back the live ones.
type slab struct {
	k         *sim.Kernel
	lent      bool // an arena's
	pool      rpcproto.Pool
	conns     rpcproto.ConnPool
	spares    gpu.Spares
	sessions  []*session
	frontends []*frontend
	made      struct {
		sessions  []*session
		frontends []*frontend
	}
}

// get lends a slab: an idle one, or a new one over a new kernel.
func (a *Arena) get() *slab {
	a.mu.Lock()
	defer a.mu.Unlock()
	if n := len(a.free); n > 0 {
		s := a.free[n-1]
		a.free[n-1] = nil
		a.free = a.free[:n-1]
		return s
	}
	return &slab{k: sim.NewKernel(0), lent: true}
}

// put takes a slab back once its cluster is closed: the kernel is reset,
// which unwinds the processes the run left, and the sessions and frontends
// still live go back to their free lists.
func (a *Arena) put(s *slab) {
	s.k.Reset(0)
	s.takeBack()
	a.mu.Lock()
	defer a.mu.Unlock()
	a.free = append(a.free, s)
}

// takeBack returns to the free lists the sessions and frontends a run left
// live, cut off at a RunUntil horizon or stuck. Their daemons are gone with
// the kernel's reset, their processes are released, and what may still name
// them — a selection latch, a multi-threaded application's threads — is
// dropped rather than reused.
func (s *slab) takeBack() {
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
