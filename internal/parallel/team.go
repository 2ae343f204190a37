package parallel

import (
	"context"
	"runtime/pprof"
	"strconv"
	"sync"
)

// Team is the persistent counterpart of Do for callers that run very many
// small barrier phases: the shard coordinator advances a handful of shard
// kernels per conservative time window, millions of windows per run, and
// spawning a goroutine per shard per window would cost more than the work.
// A Team parks its workers once at construction and reuses them for every
// phase, so a phase costs a channel wake per worker instead of goroutine
// creation.
//
// The determinism contract is Do's: phase bodies must be independent per
// index (each advances a private kernel and writes only its own index's
// results), so which worker runs which index can never matter. Run with a
// single-worker team — or a phase of one item — executes inline on the
// caller's goroutine, which is the reference execution every parallel phase
// must reproduce. A Team runs one phase at a time: Run is for one goroutine.
type Team struct {
	workers int
	tasks   chan teamTask
	closed  bool

	wg         sync.WaitGroup // the workers, for Close
	phase      sync.WaitGroup // the running phase's tasks, for Run's barrier
	panicMu    sync.Mutex
	firstPanic any
}

// teamTask is one claimed phase index.
type teamTask struct {
	fn func(i int)
	i  int
}

// NewTeam creates a team of the given size. workers <= 1 creates an inline
// team with no goroutines at all. Close releases the workers; a team is
// meant to live for one coordinated run (or one long-lived coordinator),
// not per phase.
func NewTeam(workers int) *Team {
	t := &Team{workers: workers}
	if workers <= 1 {
		return t
	}
	t.tasks = make(chan teamTask, workers)
	for w := 0; w < workers; w++ {
		t.wg.Add(1)
		label := pprof.Labels("team_worker", strconv.Itoa(w))
		go func() { //lint:allow rawgo -- the blessed worker pool's persistent variant: phase bodies advance private shard kernels and share nothing (package doc)
			defer t.wg.Done()
			pprof.Do(context.Background(), label, func(context.Context) {
				for task := range t.tasks {
					t.runOne(task)
				}
			})
		}()
	}
	return t
}

// Workers returns the team's configured worker count (minimum 1).
func (t *Team) Workers() int {
	if t.workers < 1 {
		return 1
	}
	return t.workers
}

// runOne executes one task, capturing panics for Run to re-raise.
func (t *Team) runOne(task teamTask) {
	defer t.phase.Done()
	defer func() {
		if r := recover(); r != nil {
			t.panicMu.Lock()
			if t.firstPanic == nil {
				t.firstPanic = r
			}
			t.panicMu.Unlock()
		}
	}()
	task.fn(task.i)
}

// Run executes fn(i) for every i in [0, n) and blocks until all have
// finished (the barrier). Inline teams, and phases of at most one item, run
// on the caller's goroutine. The first panic raised by any index is
// re-raised here after the barrier, matching Do.
func (t *Team) Run(n int, fn func(i int)) {
	if n <= 0 {
		return
	}
	if t.workers <= 1 || n == 1 {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	if t.closed {
		panic("parallel: Team.Run after Close")
	}
	t.phase.Add(n)
	for i := 0; i < n; i++ {
		t.tasks <- teamTask{fn: fn, i: i}
	}
	t.phase.Wait()
	t.panicMu.Lock()
	p := t.firstPanic
	t.firstPanic = nil
	t.panicMu.Unlock()
	if p != nil {
		panic(p)
	}
}

// Close releases the team's workers. Idempotent; Run must not be called
// after Close. Inline teams have nothing to release.
func (t *Team) Close() {
	if t.closed || t.workers <= 1 {
		t.closed = true
		return
	}
	t.closed = true
	close(t.tasks)
	t.wg.Wait()
}
