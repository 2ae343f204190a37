package experiments

import (
	"runtime"
	"testing"
	"time"

	"repro/internal/metrics"
	"repro/internal/workload"
)

// settledGoroutines polls until the goroutine count is back at want or under
// it — a worker pool's goroutines are released a moment before they are gone,
// and so may be one an earlier test left — and returns what it last read.
func settledGoroutines(want int) int {
	n := runtime.NumGoroutine()
	for deadline := time.Now().Add(2 * time.Second); n > want && time.Now().Before(deadline); n = runtime.NumGoroutine() {
		time.Sleep(time.Millisecond)
	}
	return n
}

// liveBytes is what the process holds once everything unreachable is gone:
// heap spans and goroutine stacks in use.
func liveBytes() int64 {
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return int64(m.HeapInuse + m.StackInuse)
}

// TestSuiteLeavesNothingBehind is the leak gate of the figure path, -short
// included: every figure returns with the goroutine count it found — the
// processes its horizons cut off unwound when the arena took their kernels
// back — and
// what a dropped suite leaves is core's warm slabs, so pass after pass the
// process stays the size the first one left it.
func TestSuiteLeavesNothingBehind(t *testing.T) {
	ps := workload.Pairs()
	pass := func() {
		s := NewSuite(Options{Seed: 1, Requests: 4, Workers: 2, Pairs: ps[:2],
			Apps: []workload.Kind{workload.DXTC, workload.Gaussian}})
		before := runtime.NumGoroutine()
		for i, fig := range []func() *metrics.Table{s.Fig9, s.Fig10, s.Fig11, s.Fig12, s.Fig13, s.Fig14} {
			fig()
			if n := settledGoroutines(before); n > before {
				t.Fatalf("figure %d of the pass returned with %d goroutines, %d before it", i, n, before)
			}
		}
	}
	passes := 14
	if testing.Short() {
		passes = 4
	}
	pass()
	first := liveBytes()
	for i := 1; i < passes; i++ {
		pass()
	}
	if grown := liveBytes() - first; grown > 1<<20 {
		t.Fatalf("%d more suites grew the live heap and stacks by %d bytes over the %d the first left", passes-1, grown, first)
	}
}
