package core

import (
	"repro/internal/sim"
)

// The cluster is the fault injector's target: faults flip per-GID state
// that the backend serve loops consult. Nothing here feeds the failure
// detector directly — upstream health tracking is driven purely by the
// frontends' call timeouts, the same signal a real deployment has.

// KillGPU implements faults.Target: the backend serving gid stops replying
// permanently. Calls in flight lose their replies; queued and future calls
// are swallowed.
func (c *Cluster) KillGPU(gid int) {
	if gid < 0 || gid >= len(c.gpuDown) {
		return
	}
	c.gpuDown[gid] = true
}

// KillNode implements faults.Target: every GPU on the node dies, carved
// slices included (a slice row carries its parent's node).
func (c *Cluster) KillNode(node int) {
	for _, e := range c.mapper.DST().Entries() {
		if e.Node == node {
			c.KillGPU(int(e.GID))
		}
	}
}

// StallGPU implements faults.Target: the backend freezes for d — calls hang
// and then service resumes (a driver hiccup, not a crash).
func (c *Cluster) StallGPU(gid int, d sim.Time) {
	if gid < 0 || gid >= len(c.stallUntil) || d <= 0 {
		return
	}
	until := c.K.Now() + d
	if until > c.stallUntil[gid] {
		c.stallUntil[gid] = until
	}
}

// DegradeGPU implements faults.Target: every subsequent call on gid takes
// factor times as long (thermal throttling, ECC scrubbing, a sick device).
func (c *Cluster) DegradeGPU(gid int, factor float64) {
	if gid < 0 || gid >= len(c.degrade) || factor <= 1 {
		return
	}
	c.degrade[gid] = factor
}
