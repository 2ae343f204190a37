package cluster_test

import (
	"runtime"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/sim"
)

// TestRunLeavesNothingBehind is the cluster tier's leak gate, -short
// included: core's arena resets every kernel it takes back, so cluster.Run
// returns with the goroutine count it found, and what its supernodes' clusters
// leave is the arena's warm slabs — run after run the process stays the size
// the first left it.
func TestRunLeavesNothingBehind(t *testing.T) {
	cfg := goldenCfg(t, "least-loaded")
	cfg.Traced = false
	cfg.Workers = 2
	cfg.Arrivals.Horizon = 30 * sim.Second
	live := func() int64 {
		runtime.GC()
		var m runtime.MemStats
		runtime.ReadMemStats(&m)
		return int64(m.HeapInuse + m.StackInuse)
	}
	run := func() {
		before := runtime.NumGoroutine()
		r, err := cluster.Run(cfg)
		if err != nil || r.Finished == 0 {
			t.Fatalf("run: %v, %+v", err, r)
		}
		// The pool's workers are released a moment before they are gone.
		n := runtime.NumGoroutine()
		for deadline := time.Now().Add(2 * time.Second); n > before && time.Now().Before(deadline); n = runtime.NumGoroutine() {
			time.Sleep(time.Millisecond)
		}
		if n > before {
			t.Fatalf("cluster.Run returned with %d goroutines, %d before it", n, before)
		}
	}
	run()
	first := live()
	for i := 0; i < 3; i++ {
		run()
	}
	if grown := live() - first; grown > 1<<20 {
		t.Fatalf("three more runs grew the live heap and stacks by %d bytes over the %d the first left", grown, first)
	}
}
