// Package parallel is the single blessed home of host concurrency in the
// reproduction. A simulation runs on one goroutine: the kernel's dispatch
// loop runs one activation at a time and a sharded run steps its kernels in turn
// (DESIGN.md §8 rule 4, §15). What fans out across host cores is whole,
// independent simulations, and it goes through this package: Do/Map/Workers
// (the repository's one worker-pool goroutine site) and Stopwatch (the bench
// harnesses' wall clock). The package imports nothing of the simulator, so
// the determinism lint's goroutine and wall-clock rules stop at its boundary
// by construction. What the runs of a pool recycle between them is the
// kernels of core's one arena.
//
// The determinism contract: callers hand Do/Map a body whose iterations are
// fully independent — each builds its own cluster and kernel, shares no
// simulated state, and communicates results only by writing its own index's
// slot. Under that contract results are bit-identical at every worker
// count, which is what lets experiment grids scale across cores without
// giving up the simulator's reproducibility guarantees.
package parallel

import (
	"context"
	"runtime"
	"runtime/pprof"
	"strconv"
	"sync"
	"sync/atomic"
)

// Workers resolves a requested worker count: nonpositive selects
// GOMAXPROCS, and the result is clamped to n (there is never a reason to
// park more workers than there are items).
func Workers(requested, n int) int {
	w := requested
	if w <= 0 {
		w = runtime.GOMAXPROCS(0)
	}
	if w > n {
		w = n
	}
	return w
}

// Do runs fn(i) for every i in [0, n), fanning out over a bounded worker
// pool. workers <= 0 selects GOMAXPROCS; workers == 1 (or n <= 1) runs
// inline with no goroutines at all, which is the reference execution every
// parallel run must reproduce. Indices are claimed from a shared counter,
// so assignment order is racy by design — the body must not care which
// worker runs which index, only that each index runs exactly once.
//
// Panics in the body are caught per index; every index still runs, and the
// first panic observed is re-raised on the caller's goroutine after the
// pool drains, matching inline semantics closely enough for harness use.
// Workers run under pprof labels (parallel_worker=N) so CPU profiles of a
// sweep attribute samples to pool workers.
func Do(n, workers int, fn func(i int)) {
	workers = Workers(workers, n)
	if workers <= 1 {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	var (
		next       atomic.Int64
		wg         sync.WaitGroup
		panicMu    sync.Mutex
		firstPanic any
	)
	body := func(i int) {
		defer func() {
			if r := recover(); r != nil {
				panicMu.Lock()
				if firstPanic == nil {
					firstPanic = r
				}
				panicMu.Unlock()
			}
		}()
		fn(i)
	}
	for w := 0; w < workers; w++ {
		wg.Add(1)
		label := pprof.Labels("parallel_worker", strconv.Itoa(w))
		go func() {
			defer wg.Done()
			pprof.Do(context.Background(), label, func(context.Context) {
				for {
					i := int(next.Add(1)) - 1
					if i >= n {
						return
					}
					body(i)
				}
			})
		}()
	}
	wg.Wait()
	if firstPanic != nil {
		panic(firstPanic)
	}
}

// Map is the ordered collector: it runs fn over [0, n) with Do and returns
// the results in index order, independent of which worker computed which
// index or in what order they finished.
func Map[T any](n, workers int, fn func(i int) T) []T {
	out := make([]T, n)
	Do(n, workers, func(i int) { out[i] = fn(i) })
	return out
}
