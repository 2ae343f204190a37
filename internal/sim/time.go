// Package sim provides a deterministic discrete-event simulation kernel.
//
// The kernel runs cooperatively scheduled processes (coroutines that execute
// one at a time, yielding to the kernel whenever they block) over a virtual
// clock. All ordering is deterministic: pending activations are
// ordered by (virtual time, schedule sequence number), so two runs with the
// same seed produce identical event orders and identical results.
//
// The package is the substrate for the simulated GPU devices, the CUDA
// runtime layer, and the Strings/Rain schedulers built on top of it.
package sim

import "fmt"

// Time is a point in virtual time, measured in microseconds since the start
// of the simulation.
type Time int64

// Duration constants expressed in the kernel's microsecond resolution.
const (
	Microsecond Time = 1
	Millisecond Time = 1000 * Microsecond
	Second      Time = 1000 * Millisecond
)

// String renders the time with an adaptive unit, e.g. "1.500ms" or "2.250s".
func (t Time) String() string {
	switch {
	case t >= Second || t <= -Second:
		return fmt.Sprintf("%.3fs", t.Seconds())
	case t >= Millisecond || t <= -Millisecond:
		return fmt.Sprintf("%.3fms", float64(t)/float64(Millisecond))
	default:
		return fmt.Sprintf("%dus", int64(t))
	}
}

// Seconds converts t to floating-point seconds.
func (t Time) Seconds() float64 { return float64(t) / float64(Second) }

// FromSeconds converts floating-point seconds to a Time, rounding to the
// nearest microsecond.
func FromSeconds(s float64) Time { return Time(float64(s*float64(Second)) + 0.5) }
