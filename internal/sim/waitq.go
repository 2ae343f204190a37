package sim

// waitQ is the FIFO of processes parked on an Event, a Signal or a Mutex. It
// is almost always one process, and that one lives inline: first is the
// oldest waiter when set, rest holds those that arrived while the list was
// not empty, so a wait does not allocate a ring for one slot's worth.
type waitQ struct {
	first *Proc
	rest  Ring[*Proc]
}

// Len returns the number of waiting processes.
func (w *waitQ) Len() int {
	if w.first != nil {
		return 1 + w.rest.Len()
	}
	return w.rest.Len()
}

// Push appends p at the back.
func (w *waitQ) Push(p *Proc) {
	if w.first == nil && w.rest.Len() == 0 {
		w.first = p
	} else {
		w.rest.Push(p)
	}
}

// Pop removes and returns the longest-waiting process. Caller checks Len.
func (w *waitQ) Pop() *Proc {
	if p := w.first; p != nil {
		w.first = nil
		return p
	}
	return w.rest.Pop()
}

// Remove takes p out of the list wherever it stands, if it is there.
func (w *waitQ) Remove(p *Proc) {
	if w.first == p {
		w.first = nil
		return
	}
	w.rest.RemoveFirst(func(q *Proc) bool { return q == p }) // predicate closure does not outlive RemoveFirst; the compiler keeps it on the stack
}
