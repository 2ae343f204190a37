package parallel

import (
	"reflect"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/sim"
)

func TestDoRunsEveryIndexOnce(t *testing.T) {
	for _, workers := range []int{1, 2, 8, 100} {
		n := 57
		counts := make([]int32, n)
		Do(n, workers, func(i int) { atomic.AddInt32(&counts[i], 1) })
		for i, c := range counts {
			if c != 1 {
				t.Errorf("workers=%d: index %d ran %d times", workers, i, c)
			}
		}
	}
}

func TestDoZeroAndOneItems(t *testing.T) {
	Do(0, 8, func(int) { t.Error("body ran for n=0") })
	ran := false
	Do(1, 8, func(i int) { ran = true })
	if !ran {
		t.Error("body did not run for n=1")
	}
}

func TestMapOrdersResultsByIndex(t *testing.T) {
	want := make([]int, 200)
	for i := range want {
		want[i] = i * i
	}
	for _, workers := range []int{1, 7} {
		got := Map(len(want), workers, func(i int) int { return i * i })
		if !reflect.DeepEqual(got, want) {
			t.Errorf("workers=%d: Map returned out-of-order results", workers)
		}
	}
}

func TestDoPanicPropagatesAndDrains(t *testing.T) {
	n := 40
	var ran atomic.Int32
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("panic in body was swallowed")
		}
		if s, ok := r.(string); !ok || s != "boom" {
			t.Fatalf("recovered %v, want \"boom\"", r)
		}
		// Every index still ran: a panic does not silently drop work.
		if got := ran.Load(); got != int32(n) {
			t.Errorf("%d of %d indices ran after panic", got, n)
		}
	}()
	Do(n, 4, func(i int) {
		ran.Add(1)
		if i == 3 {
			panic("boom")
		}
	})
}

func TestDoInlinePanicPropagates(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("inline (workers=1) panic was swallowed")
		}
	}()
	Do(3, 1, func(i int) {
		if i == 1 {
			panic("inline")
		}
	})
}

func TestWorkersResolution(t *testing.T) {
	if got := Workers(0, 100); got != runtime.GOMAXPROCS(0) {
		t.Errorf("Workers(0, 100) = %d, want GOMAXPROCS %d", got, runtime.GOMAXPROCS(0))
	}
	if got := Workers(16, 3); got != 3 {
		t.Errorf("Workers(16, 3) = %d, want clamp to 3", got)
	}
	if got := Workers(4, 100); got != 4 {
		t.Errorf("Workers(4, 100) = %d, want 4", got)
	}
}

// TestKernelArenaReuses proves Put kernels are deterministically handed back
// out (the arena is a free list, not a best-effort pool) and that a reused
// kernel behaves like a fresh one after Reset.
func TestKernelArenaReuses(t *testing.T) {
	var a KernelArena
	defer a.Close()
	k1 := a.Get()
	k1.Go("p", func(p *sim.Proc) { p.Sleep(5) })
	k1.Run()
	a.Put(k1)

	k2 := a.Get()
	defer a.Put(k2)
	if k2 != k1 {
		t.Fatal("arena did not reuse the pooled kernel")
	}
	k2.Reset(3)
	if k2.Now() != 0 || k2.Dispatched() != 0 {
		t.Fatal("reused kernel not reset")
	}
	gets, reused := a.Stats()
	if gets != 2 || reused != 1 {
		t.Errorf("Stats = (%d, %d), want (2, 1)", gets, reused)
	}
}

// goroutines counts goroutines once the count has held for 10 ms: a pool's
// workers are released by its WaitGroup a moment before they are gone.
func goroutines() int {
	n := runtime.NumGoroutine()
	for held := 0; held < 10; held++ {
		time.Sleep(time.Millisecond)
		if m := runtime.NumGoroutine(); m != n {
			n, held = m, 0
		}
	}
	return n
}

// TestKernelArenaKeepsCoroutines: Put unwinds what the run left parked and
// keeps the coroutines with the kernel, so the next run on it builds none;
// Close gives every one of them back and leaves the arena usable.
func TestKernelArenaKeepsCoroutines(t *testing.T) {
	base := goroutines()
	var a KernelArena
	run := func() *sim.Kernel {
		k := a.Get()
		k.Reset(1)
		for i := 0; i < 5; i++ {
			k.Go("p", func(p *sim.Proc) { p.Sleep(sim.Time(10 * (i + 1))) })
		}
		k.RunUntil(25) // three still parked
		a.Put(k)
		if k.ProcCount() != 0 {
			t.Fatalf("Put left %d processes on the kernel", k.ProcCount())
		}
		return k
	}
	k1 := run()
	if n := runtime.NumGoroutine(); n != base+5 {
		t.Fatalf("%d goroutines after Put, want the baseline's %d and the run's 5 coroutines", n, base)
	}
	if k2 := run(); k2 != k1 || runtime.NumGoroutine() != base+5 {
		t.Fatalf("second run: reused = %v, %d goroutines, want true and %d", k2 == k1, runtime.NumGoroutine(), base+5)
	}
	a.Close()
	if n := runtime.NumGoroutine(); n != base {
		t.Fatalf("%d goroutines after Close, %d before the arena's first run", n, base)
	}
	if k3 := run(); k3 != k1 {
		t.Fatal("Close dropped the pooled kernel")
	}
	a.Close()
}

// TestKernelArenaConcurrent: kernels — with the coroutines one pool's workers
// built and parked processes on — are taken up by the goroutines of the next
// pool, which unwind, reuse and finally close them (run under -race).
func TestKernelArenaConcurrent(t *testing.T) {
	base := goroutines()
	var a KernelArena
	for round := 0; round < 2; round++ {
		Do(64, 8, func(i int) {
			k := a.Get()
			k.Reset(int64(i))
			k.Go("w", func(p *sim.Proc) { p.Sleep(sim.Time(i)) })
			k.Go("parked", func(p *sim.Proc) { p.Sleep(1000) })
			k.RunUntil(100)
			if round == 0 && i%2 == 0 {
				// Left for whoever gets the kernel next to unwind in its Reset.
				a.mu.Lock()
				a.free = append(a.free, k)
				a.mu.Unlock()
				return
			}
			a.Put(k)
		})
	}
	gets, reused := a.Stats()
	if gets != 128 || reused < 64 {
		t.Errorf("Stats = (%d, %d), want 128 gets and the second round's 64 reused", gets, reused)
	}
	a.Close()
	if n := goroutines(); n != base {
		t.Errorf("%d goroutines after Close, %d before", n, base)
	}
}

func TestStopwatchMonotone(t *testing.T) {
	sw := StartStopwatch()
	if sw.Seconds() < 0 || sw.Nanoseconds() < 0 {
		t.Error("stopwatch went backwards")
	}
}
