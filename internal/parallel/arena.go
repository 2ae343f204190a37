package parallel

import (
	"sync"

	"repro/internal/sim"
)

// KernelArena recycles simulation kernels across runs. A kernel retains the
// backing arrays its event heap, now-queue and waiter rings grew during a
// run; resetting and reusing one (sim.Kernel.Reset) lets a worker that
// executes hundreds of experiment cells skip each run's ramp-up
// allocations. Reuse is semantically invisible: Reset restores the exact
// state NewKernel would produce, so results never depend on which kernel an
// arena happens to hand out.
//
// The arena is a plain mutex-guarded free list rather than a sync.Pool:
// reuse is deterministic (a Put kernel is always handed back out, never
// dropped by the GC), which keeps the reused-kernel code path exercised on
// every run instead of probabilistically.
type KernelArena struct {
	mu   sync.Mutex
	free []*sim.Kernel
	gets int
	hits int
}

// Get returns a kernel in unspecified state; the caller must Reset it (or
// hand it to a constructor that does) before use.
func (a *KernelArena) Get() *sim.Kernel {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.gets++
	if n := len(a.free); n > 0 {
		k := a.free[n-1]
		a.free[n-1] = nil
		a.free = a.free[:n-1]
		a.hits++
		return k
	}
	return sim.NewKernel(0)
}

// Put returns a kernel to the arena. The kernel must be quiescent: its run
// finished, no caller retains references that would observe the next
// user's Reset. Put closes and resets it, so a pooled kernel — or an arena
// dropped with its kernels — pins neither idle process coroutines nor the
// finished run's objects, only its warm backing arrays.
func (a *KernelArena) Put(k *sim.Kernel) {
	if k == nil {
		return
	}
	k.Close()
	k.Reset(0)
	a.mu.Lock()
	defer a.mu.Unlock()
	a.free = append(a.free, k)
}

// Stats reports how many Gets were served and how many of them reused a
// pooled kernel (for tests and tuning).
func (a *KernelArena) Stats() (gets, reused int) {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.gets, a.hits
}
