// Package shard pins simclock's hold on the kernel layer: lookahead and
// horizons are virtual sim.Time — a wall-clock read in the window coordinator
// would leak host timing into the merged event order, so simclock must keep
// firing on this path.
package shard

import (
	"time"

	"repro/internal/sim"
)

// Horizon returns the window end for a shard at now.
func Horizon(now, lookahead sim.Time) sim.Time { return now + lookahead - 1 }

// badWindowStamp is the mistake simclock exists to catch in this layer.
func badWindowStamp() int64 {
	t := time.Now() // want `reads the wall clock in a sim-driven package`
	return t.UnixNano()
}
