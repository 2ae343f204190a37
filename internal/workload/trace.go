package workload

import (
	"math/rand"
	"sync"

	"repro/internal/sim"
)

// StreamSeed derives the per-stream arrival seed from the run seed and the
// stream's index. A trace is spec.Arrivals of a source seeded with it,
// whether a book shares it or not.
func StreamSeed(seed int64, si int) int64 {
	return seed*7919 + int64(si)*104729 + 13
}

// traceKey identifies one materialized arrival trace. StreamSpec is a flat
// comparable value, so the spec itself participates in the key: two cells
// share a trace exactly when the same stream would be regenerated anyway.
type traceKey struct {
	seed int64
	si   int
	spec StreamSpec
}

// TraceBook memoizes materialized arrival traces so experiment cells that
// replay the same stream (every policy of a figure runs the identical
// workload) share one immutable slice instead of regenerating it per run.
// Returned traces are shared and MUST be treated read-only.
//
// A TraceBook is safe for concurrent use by parallel sweep cells. Losing a
// publication race costs only a duplicate derivation of the identical
// trace; whichever copy lands in the map, every consumer sees the same
// values because derivation depends only on the key.
type TraceBook struct {
	mu sync.RWMutex
	m  map[traceKey][]sim.Time
}

// NewTraceBook returns an empty trace cache.
func NewTraceBook() *TraceBook {
	return &TraceBook{m: make(map[traceKey][]sim.Time)}
}

// Arrivals returns the arrival times of stream si of spec under the given
// run seed, spec.Arrivals(rand.New(rand.NewSource(StreamSeed(seed, si)))),
// materializing and caching them on first use.
func (b *TraceBook) Arrivals(seed int64, si int, spec StreamSpec) []sim.Time {
	key := traceKey{seed: seed, si: si, spec: spec}
	b.mu.RLock()
	t, ok := b.m[key]
	b.mu.RUnlock()
	if ok {
		return t
	}
	t = spec.Arrivals(rand.New(rand.NewSource(StreamSeed(seed, si))))
	b.mu.Lock()
	if prev, ok := b.m[key]; ok {
		t = prev // keep the first publication so all consumers alias one slice
	} else {
		b.m[key] = t
	}
	b.mu.Unlock()
	return t
}

// Len reports how many distinct traces are cached (for tests and stats).
func (b *TraceBook) Len() int {
	b.mu.RLock()
	defer b.mu.RUnlock()
	return len(b.m)
}
