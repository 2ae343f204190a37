package parallel

import (
	"reflect"
	"runtime"
	"sync/atomic"
	"testing"
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

func TestStopwatchMonotone(t *testing.T) {
	sw := StartStopwatch()
	if sw.Seconds() < 0 || sw.Nanoseconds() < 0 {
		t.Error("stopwatch went backwards")
	}
}
