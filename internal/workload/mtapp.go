package workload

import (
	"fmt"

	"repro/internal/cuda"
	"repro/internal/sim"
)

// RunThreaded executes the application with nThreads host threads splitting
// the iterations, each thread obtaining its own cuda.Client view from the
// factory (the bare runtime hands out process threads; Strings hands out
// MTSession views whose per-device buffer synchronization keeps the
// threads' GPU operations in application order). Each thread owns a private
// staging buffer and runs syncThread over its share of iterations; the main
// thread joins them and performs the final exit.
func (a *App) RunThreaded(p *sim.Proc, factory func(*sim.Proc) cuda.Client, nThreads int) error {
	if nThreads < 1 {
		nThreads = 1
	}
	a.Started = p.Now()
	k := p.Kernel()
	errs := make([]error, nThreads)
	done := make([]*sim.Event, nThreads)
	per := a.Profile.Iters / nThreads
	extra := a.Profile.Iters % nThreads

	for ti := 0; ti < nThreads; ti++ {
		ti := ti
		iters := per
		if ti < extra {
			iters++
		}
		done[ti] = k.NewEvent()
		k.Go(fmt.Sprintf("app-%d-t%d", a.ID, ti), func(tp *sim.Proc) {
			defer done[ti].Fire()
			errs[ti] = a.syncThread(factory(tp), iters)
		})
	}
	for _, ev := range done {
		p.Wait(ev)
	}
	for ti, err := range errs {
		if err != nil {
			return fmt.Errorf("app %d thread %d: %w", a.ID, ti, err)
		}
	}
	// The main thread performs the process-level teardown.
	c := factory(p)
	if err := c.ThreadExit(); err != nil {
		return fmt.Errorf("app %d exit: %w", a.ID, err)
	}
	a.Finished = p.Now()
	return nil
}
