package sim

import (
	"fmt"
	"reflect"
	"testing"
	"testing/quick"
)

func TestQueuePutGetFIFO(t *testing.T) {
	k := NewKernel(1)
	q := NewQueue[int](k)
	var got []int
	k.Go("prod", func(p *Proc) {
		for i := 0; i < 5; i++ {
			q.Put(i)
		}
	})
	k.Go("cons", func(p *Proc) {
		for i := 0; i < 5; i++ {
			got = append(got, q.Get(p))
		}
	})
	k.Run()
	if !reflect.DeepEqual(got, []int{0, 1, 2, 3, 4}) {
		t.Fatalf("got %v", got)
	}
}

func TestQueueGetBlocksUntilPut(t *testing.T) {
	k := NewKernel(1)
	q := NewQueue[string](k)
	var at Time
	k.Go("cons", func(p *Proc) {
		q.Get(p)
		at = p.Now()
	})
	k.Go("prod", func(p *Proc) {
		p.Sleep(25)
		q.Put("x")
	})
	k.Run()
	if at != 25 {
		t.Fatalf("consumer resumed at %v, want 25us", at)
	}
}

func TestQueueMultipleConsumersServedInOrder(t *testing.T) {
	k := NewKernel(1)
	q := NewQueue[int](k)
	var served []string
	for _, n := range []string{"c1", "c2", "c3"} {
		n := n
		k.Go(n, func(p *Proc) {
			v := q.Get(p)
			served = append(served, fmt.Sprintf("%s:%d", n, v))
		})
	}
	k.Go("prod", func(p *Proc) {
		p.Sleep(1)
		q.Put(10)
		q.Put(20)
		q.Put(30)
	})
	k.Run()
	want := []string{"c1:10", "c2:20", "c3:30"}
	if !reflect.DeepEqual(served, want) {
		t.Fatalf("served = %v, want %v", served, want)
	}
}

func TestQueueTryGet(t *testing.T) {
	k := NewKernel(1)
	q := NewQueue[int](k)
	if _, ok := q.TryGet(); ok {
		t.Fatal("TryGet on empty queue returned ok")
	}
	q.Put(7)
	v, ok := q.TryGet()
	if !ok || v != 7 {
		t.Fatalf("TryGet = %d,%v want 7,true", v, ok)
	}
	if q.Len() != 0 {
		t.Fatalf("Len = %d after drain", q.Len())
	}
}

func TestQueueGetTimeout(t *testing.T) {
	k := NewKernel(1)
	q := NewQueue[int](k)
	var ok1, ok2 bool
	var v2 int
	k.Go("cons", func(p *Proc) {
		_, ok1 = q.GetTimeout(p, 10)
		v2, ok2 = q.GetTimeout(p, 100)
	})
	k.Go("prod", func(p *Proc) {
		p.Sleep(50)
		q.Put(9)
	})
	k.Run()
	if ok1 {
		t.Fatal("first GetTimeout should have timed out")
	}
	if !ok2 || v2 != 9 {
		t.Fatalf("second GetTimeout = %d,%v want 9,true", v2, ok2)
	}
}

// Property: a queue delivers exactly the multiset of puts, in order, for any
// interleaving of producer delays.
func TestQuickQueueDeliversAllInOrder(t *testing.T) {
	f := func(delays []uint8) bool {
		k := NewKernel(3)
		q := NewQueue[int](k)
		var got []int
		k.Go("prod", func(p *Proc) {
			for i, d := range delays {
				p.Sleep(Time(d))
				q.Put(i)
			}
		})
		k.Go("cons", func(p *Proc) {
			for range delays {
				got = append(got, q.Get(p))
			}
		})
		k.Run()
		if len(got) != len(delays) {
			return false
		}
		for i, v := range got {
			if v != i {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}
