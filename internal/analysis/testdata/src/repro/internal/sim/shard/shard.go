// Package shard is a miniature stand-in for the real conservative window
// coordinator, doubling as the rawgo kernel-layer fixture: the real one steps
// its kernels in turn on one goroutine, so a worker per kernel is flagged.
package shard

import "repro/internal/sim"

// Coordinator advances shard kernels inside conservative windows.
type Coordinator struct {
	kernels   []*sim.Kernel
	lookahead sim.Time
}

// Window is the mistake: every kernel advances to the horizon on its own
// worker goroutine.
func (c *Coordinator) Window(horizon sim.Time) {
	done := make(chan struct{}, len(c.kernels))
	for range c.kernels {
		go func() { // want `raw goroutine in a sim-driven package`
			done <- struct{}{}
		}()
	}
	for range c.kernels {
		<-done
	}
}
