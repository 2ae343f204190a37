package parallel

import "time"

// Stopwatch measures host wall time around whole simulations. It exists so
// the bench harnesses have one audited place to touch the wall clock: the
// measured duration is reporting output only and never reaches simulated
// state. Code outside benchmarking should not need it.
type Stopwatch struct {
	start time.Time
}

// StartStopwatch begins timing.
func StartStopwatch() Stopwatch {
	return Stopwatch{start: time.Now()}
}

// Seconds returns the wall seconds elapsed since the stopwatch started.
func (s Stopwatch) Seconds() float64 {
	return time.Since(s.start).Seconds()
}

// Nanoseconds returns the wall nanoseconds elapsed since the stopwatch
// started.
func (s Stopwatch) Nanoseconds() int64 {
	return time.Since(s.start).Nanoseconds()
}
