package sim

import (
	"fmt"
	"testing"
)

func TestRingFIFOAndWrap(t *testing.T) {
	var r Ring[int]
	for round := 0; round < 5; round++ {
		for i := 0; i < 13; i++ {
			r.Push(round*100 + i)
		}
		for i := 0; i < 13; i++ {
			if got := r.Pop(); got != round*100+i {
				t.Fatalf("round %d: Pop = %d, want %d", round, got, round*100+i)
			}
		}
	}
	if r.Len() != 0 {
		t.Fatalf("Len = %d after drain", r.Len())
	}
}

func TestRingFront(t *testing.T) {
	var r Ring[string]
	// Force the head off zero so the pops below wrap.
	for i := 0; i < 6; i++ {
		r.Push("x")
		r.Pop()
	}
	for _, s := range []string{"a", "b", "c", "d"} {
		r.Push(s)
	}
	if r.Front() != "a" {
		t.Fatalf("Front = %q", r.Front())
	}
	for i, want := range []string{"a", "b", "c", "d"} {
		if got := r.Pop(); got != want {
			t.Fatalf("Pop %d = %q, want %q", i, got, want)
		}
	}
}

func TestRingRemoveFirst(t *testing.T) {
	var r Ring[int]
	for i := 0; i < 6; i++ {
		r.Push(i)
	}
	if !r.RemoveFirst(func(v int) bool { return v == 3 }) {
		t.Fatal("RemoveFirst missed an existing item")
	}
	if r.RemoveFirst(func(v int) bool { return v == 3 }) {
		t.Fatal("RemoveFirst found a removed item")
	}
	var got []int
	for r.Len() > 0 {
		got = append(got, r.Pop())
	}
	want := []int{0, 1, 2, 4, 5}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("after remove: %v, want %v", got, want)
	}
}

func TestRingPopEmptyPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic on empty Pop")
		}
	}()
	var r Ring[int]
	r.Pop()
}

// TestQueueCapacityBounded is the regression test for the drain-by-reslice
// leak: a long-lived queue cycled N times must keep a small constant backing
// capacity instead of retaining every item that ever passed through (the old
// `items = items[1:]` drain pinned the whole backing array).
func TestQueueCapacityBounded(t *testing.T) {
	k := NewKernel(1)
	q := NewQueue[[256]byte](k)
	const cycles = 100000
	k.Go("cycler", func(p *Proc) {
		for i := 0; i < cycles; i++ {
			q.Put([256]byte{})
			q.Get(p)
		}
	})
	k.Run()
	if q.Len() != 0 {
		t.Fatalf("Len = %d after cycles", q.Len())
	}
	if len(q.items.buf) > 16 {
		t.Fatalf("queue capacity grew to %d after %d put/get cycles; want a small constant", len(q.items.buf), cycles)
	}
}

// A burst grows the ring to the peak depth and no further, regardless of how
// many items flow through afterwards.
func TestQueueCapacityTracksPeakDepth(t *testing.T) {
	k := NewKernel(1)
	q := NewQueue[int](k)
	k.Go("burst", func(p *Proc) {
		for i := 0; i < 100; i++ {
			q.Put(i)
		}
		for i := 0; i < 100; i++ {
			q.Get(p)
		}
		for i := 0; i < 100000; i++ {
			q.Put(i)
			q.Get(p)
		}
	})
	k.Run()
	if len(q.items.buf) > 128 {
		t.Fatalf("capacity %d exceeds next power of two above peak depth 100", len(q.items.buf))
	}
}
