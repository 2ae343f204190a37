package parallel

import (
	"sync"

	"repro/internal/sim"
)

// KernelArena recycles simulation kernels across runs. A kernel retains the
// backing arrays its event heap, now-queue and waiter rings grew during a
// run and the coroutines its processes ran on; resetting and reusing one
// (sim.Kernel.Reset) lets a worker that executes hundreds of experiment cells
// skip each run's ramp-up allocations and coroutine builds. Reuse is
// semantically invisible: Reset restores the exact state NewKernel would
// produce, so results never depend on which kernel an arena happens to hand
// out. A pooled kernel's idle coroutines are goroutines, so whoever owns an
// arena calls Close when its runs are done.
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
// user's Reset. Put resets it, which unwinds whatever processes the run left
// alive, so a pooled kernel pins none of the finished run's objects: only its
// warm backing arrays and idle coroutines.
func (a *KernelArena) Put(k *sim.Kernel) {
	if k == nil {
		return
	}
	k.Reset(0)
	a.mu.Lock()
	defer a.mu.Unlock()
	a.free = append(a.free, k)
}

// Close stops the idle coroutines of every pooled kernel. The arena stays
// usable and keeps the kernels' backing arrays; a kernel that is out when
// Close runs keeps its coroutines until the Close after its Put.
func (a *KernelArena) Close() {
	a.mu.Lock()
	defer a.mu.Unlock()
	for _, k := range a.free {
		k.Close()
	}
}

// Stats reports how many Gets were served and how many of them reused a
// pooled kernel (for tests and tuning).
func (a *KernelArena) Stats() (gets, reused int) {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.gets, a.hits
}
