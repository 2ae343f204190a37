package sim

// Mutex is a lock with FIFO admission: Unlock passes the lock directly to
// the longest-waiting process (no barging).
type Mutex struct {
	k       *Kernel
	locked  bool
	waiters waitQ
}

// NewMutex returns an unlocked mutex.
func (k *Kernel) NewMutex() *Mutex { return &Mutex{k: k} }

// Lock acquires the mutex, parking p in FIFO order until it is free.
func (m *Mutex) Lock(p *Proc) {
	if !m.locked {
		m.locked = true
		return
	}
	m.waiters.Push(p)
	// Unlock hands the lock to the woken waiter, so a single park suffices.
	p.park()
}

// Unlock releases the mutex, waking the longest-waiting process if any.
func (m *Mutex) Unlock() {
	if !m.locked {
		panic("sim: unlock of unlocked mutex")
	}
	if m.waiters.Len() > 0 {
		m.k.schedule(m.waiters.Pop(), m.k.now, wakeEvent)
		return
	}
	m.locked = false
}
