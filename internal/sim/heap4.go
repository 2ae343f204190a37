package sim

// heapItem constrains heap4 elements to value types carrying their own
// ordering. Storing T by value (not through container/heap's interface{})
// removes the per-Push allocation and keeps siblings adjacent in memory. The
// compare is not inlined: Go reaches lessThan through the GC-shape dictionary,
// and sim.activation.lessThan is 2.2 % of fleet_sharded's host samples, flat.
type heapItem[T any] interface{ lessThan(T) bool }

// heap4 is a hand-rolled 4-ary min-heap. Compared to the binary
// container/heap it halves the tree depth (fewer swap chains on push/pop)
// and the four children of a node share cache lines, which is where the
// kernel's dispatch loop spends its comparisons.
type heap4[T heapItem[T]] struct{ a []T }

func (h *heap4[T]) len() int { return len(h.a) }

// reset empties the heap, zeroing entries (for the GC) but keeping the
// backing array so a reused heap does not re-grow from scratch.
func (h *heap4[T]) reset() {
	clear(h.a)
	h.a = h.a[:0]
}

// peek returns the minimum without removing it. Caller checks len.
func (h *heap4[T]) peek() T { return h.a[0] }

// push inserts v.
func (h *heap4[T]) push(v T) {
	h.a = append(h.a, v)
	a := h.a
	i := len(a) - 1
	for i > 0 {
		p := (i - 1) >> 2
		if !a[i].lessThan(a[p]) {
			break
		}
		a[i], a[p] = a[p], a[i]
		i = p
	}
}

// drop removes the minimum, which the caller has read with peek.
func (h *heap4[T]) drop() {
	a := h.a
	n := len(a) - 1
	a[0] = a[n]
	var zero T
	a[n] = zero
	a = a[:n]
	h.a = a
	i := 0
	for {
		c := i<<2 + 1
		if c >= n {
			break
		}
		end := c + 4
		if end > n {
			end = n
		}
		min := c
		for j := c + 1; j < end; j++ {
			if a[j].lessThan(a[min]) {
				min = j
			}
		}
		if !a[min].lessThan(a[i]) {
			break
		}
		a[i], a[min] = a[min], a[i]
		i = min
	}
}
