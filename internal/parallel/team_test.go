package parallel

import (
	"reflect"
	"sync/atomic"
	"testing"
)

// runPhases executes a fixed phase script on a team and returns the
// accumulated per-index results. Each phase writes only its own index, the
// Team determinism contract.
func runPhases(t *Team, phases, n int) [][]int {
	out := make([][]int, phases)
	for ph := 0; ph < phases; ph++ {
		res := make([]int, n)
		t.Run(n, func(i int) { res[i] = ph*1000 + i*i })
		out[ph] = res
	}
	return out
}

func TestTeamInlineMatchesParallel(t *testing.T) {
	ref := runPhases(NewTeam(1), 5, 8)
	for _, w := range []int{2, 4, 8} {
		tm := NewTeam(w)
		got := runPhases(tm, 5, 8)
		tm.Close()
		if !reflect.DeepEqual(got, ref) {
			t.Fatalf("workers=%d diverged from inline reference", w)
		}
	}
}

func TestTeamRunIsABarrier(t *testing.T) {
	tm := NewTeam(4)
	defer tm.Close()
	var done atomic.Int64
	for phase := 0; phase < 50; phase++ {
		tm.Run(7, func(i int) { done.Add(1) })
		if got := done.Load(); got != int64((phase+1)*7) {
			t.Fatalf("after phase %d: %d tasks done, want %d", phase, got, (phase+1)*7)
		}
	}
}

func TestTeamPanicPropagates(t *testing.T) {
	tm := NewTeam(3)
	defer tm.Close()
	func() {
		defer func() {
			if r := recover(); r != "boom-2" {
				t.Fatalf("recovered %v, want boom-2", r)
			}
		}()
		tm.Run(6, func(i int) {
			if i == 2 {
				panic("boom-2")
			}
		})
	}()
	// The panic must not poison later phases.
	var n atomic.Int64
	tm.Run(6, func(i int) { n.Add(1) })
	if n.Load() != 6 {
		t.Fatalf("post-panic phase ran %d tasks, want 6", n.Load())
	}
}

func TestTeamInlinePanicPropagates(t *testing.T) {
	tm := NewTeam(1)
	defer func() {
		if r := recover(); r != "inline-boom" {
			t.Fatalf("recovered %v, want inline-boom", r)
		}
	}()
	tm.Run(3, func(i int) {
		if i == 1 {
			panic("inline-boom")
		}
	})
}

func TestTeamSingleItemRunsInline(t *testing.T) {
	tm := NewTeam(4)
	defer tm.Close()
	// n==1 must run on the caller's goroutine: an unsynchronized local
	// write is race-free only if so (the race detector enforces this).
	x := 0
	tm.Run(1, func(i int) { x = 41 + i })
	if x != 41 {
		t.Fatalf("x = %d, want 41", x)
	}
}

func TestTeamWorkersFloor(t *testing.T) {
	if got := NewTeam(0).Workers(); got != 1 {
		t.Fatalf("Workers() = %d, want 1", got)
	}
	if got := NewTeam(6).Workers(); got != 6 {
		t.Fatalf("Workers() = %d, want 6", got)
	}
}

func TestTeamCloseIdempotentAndRunAfterClosePanics(t *testing.T) {
	tm := NewTeam(2)
	tm.Close()
	tm.Close()
	defer func() {
		if recover() == nil {
			t.Fatal("Run after Close did not panic")
		}
	}()
	tm.Run(4, func(int) {})
}

func TestTeamRunZeroAndNegative(t *testing.T) {
	tm := NewTeam(2)
	defer tm.Close()
	tm.Run(0, func(int) { t.Fatal("fn called for n=0") })
	tm.Run(-3, func(int) { t.Fatal("fn called for n<0") })
}

// TestTeamRunZeroAlloc: the shard coordinator calls Run once per window,
// with a phase body it built once, so a phase must cost channel wakes and
// nothing else — the barrier's WaitGroup lives in the Team, not in each Run.
func TestTeamRunZeroAlloc(t *testing.T) {
	tm := NewTeam(2)
	defer tm.Close()
	var hits [4]int
	body := func(i int) { hits[i]++ }
	tm.Run(len(hits), body) // start the workers' first receives outside the count
	if allocs := testing.AllocsPerRun(200, func() { tm.Run(len(hits), body) }); allocs != 0 {
		t.Fatalf("%v allocations per phase at 2 workers, want 0", allocs)
	}
	for i, n := range hits {
		if n != 202 {
			t.Fatalf("index %d ran %d times, want 202", i, n)
		}
	}
}
