package workload

import (
	"fmt"

	"repro/internal/cuda"
	"repro/internal/sim"
)

// Steps runs an application as a daemon's step machine: the calls it makes,
// with their arguments, in order, through a cuda.Stepper, so that each wait
// ends the daemon's step. The program is the style's:
//
//   - sync, the SDK samples' shape: select a device, allocate a staging
//     buffer, per iteration CPU → synchronous chunked H2D copies → launch →
//     synchronous chunked D2H copies, then synchronize, free and exit, all on
//     the default stream;
//   - pipelined, hand-optimized: two buffers and two streams the iterations
//     take in turn, asynchronous copies, each lane's previous round
//     synchronized just before its buffer is reused, then per lane drain,
//     destroy and free, and exit;
//   - multi-threaded: two host threads, daemons of their own, split the
//     iterations, each running the sync program without the exit; the
//     application joins them and exits. Threads that share one client take
//     turns on it, a call at a time, in the order they ask: the interposer's
//     per-device buffer synchronization, which keeps their calls in the
//     order the application meant.
type Steps struct {
	a    *App
	c    cuda.Stepper
	c1   cuda.Stepper // a multi-threaded application's second thread's
	at   stepAt
	busy bool    // op is in flight, or waits for its turn
	turn turnAt  // where op stands in the turns on a shared client
	op   cuda.Op // the call made last
	iter int     // iterations begun
	left int64   // bytes the copy in progress has still to move
	lane int     // the buffer and stream in use
	buf  [2]cuda.Ptr
	st   [2]cuda.StreamID // the pipeline's; the default stream otherwise

	// A thread's machine: the application's machine, its index and its
	// share of the iterations. The application's machine holds its threads.
	main  *Steps
	ti    int
	iters int
	mt    *threads
}

// threads are a multi-threaded application's two host threads, and the turn
// they take on a client they share: held while a call is in flight, waiters
// asking for it next.
type threads struct {
	th      [2]thread
	shared  bool
	held    bool
	waiters sim.Signal
}

// thread is one host thread: a daemon running the sync program, the latch the
// application joins it on, and the thread's error.
type thread struct {
	d      sim.Daemon
	s      Steps
	done   *sim.Event
	err    error
	nameFn func() string
	stepFn func(*sim.Daemon)
}

// stepAt is where the machine goes once the call in flight is over.
type stepAt uint8

const (
	stepStart   stepAt = iota // take the start time, select a device
	stepMalloc                // allocate the lane's buffer
	stepStream                // create the lane's stream
	stepIter                  // begin the next iteration, or wind down
	stepCPU                   // the iteration's CPU phase
	stepH2D                   // copy the input in, a chunk a call
	stepLaunch                // launch the kernel
	stepD2H                   // copy the output back, a chunk a call
	stepDrain                 // synchronize the lane's stream at the end
	stepDestroy               // destroy it
	stepFree                  // free the lane's buffer
	stepExit                  // exit the thread
	stepDone                  // take the finish time
	stepJoin                  // join the threads, in order
)

// turnAt is where a call on a client the threads share stands in the turns.
type turnAt uint8

const (
	turnNone   turnAt = iota // the call holds the turn, or needs none
	turnAsk                  // the turn is held: wait for it
	turnHanded               // the thread whose call ended handed it on
)

// Start makes r the machine of a's run through c; c1 is the second thread's
// client of a multi-threaded application, c itself when the threads share it.
func (r *Steps) Start(a *App, c, c1 cuda.Stepper) {
	*r = Steps{a: a, c: c, c1: c1, iters: a.Profile.Iters, mt: r.mt}
}

// Step runs the machine from d's step until it waits (false) or the
// application is over (true), with its error, if any.
func (r *Steps) Step(d *sim.Daemon) (bool, error) {
	a, prof := r.a, &r.a.Profile
	piped := a.Style == StylePipelined
	for {
		if r.busy {
			switch r.turn {
			case turnAsk:
				r.turn = turnHanded
				d.WaitSignal(&r.main.mt.waiters)
				return false, nil
			case turnHanded:
				r.turn = turnNone
				r.c.Issue(&r.op)
			}
			if !r.c.Await(d) {
				return false, nil
			}
			r.busy = false
			ret, err := r.c.Result()
			if m := r.main; m != nil && m.mt.shared && !m.mt.waiters.NotifyOne() {
				m.mt.held = false
			}
			if err != nil {
				return true, r.fail(err)
			}
			switch r.op.ID {
			case cuda.CallMalloc:
				r.buf[r.lane] = ret.Ptr
			case cuda.CallStreamCreate:
				r.st[r.lane] = ret.Stream
				r.lane++
			}
		}
		switch r.at {
		case stepStart:
			if r.main == nil {
				a.Started = d.Now()
				if a.Style == StyleMultiThread {
					r.startThreads(d)
					return false, nil
				}
			}
			r.op = cuda.Op{ID: cuda.CallSetDevice, Dev: a.PreferredDev}
			r.issue(stepMalloc)
		case stepMalloc:
			if r.lane == len(r.buf) {
				r.at, r.lane = stepIter, 0
				break
			}
			r.op = cuda.Op{ID: cuda.CallMalloc, Bytes: prof.BufBytes}
			if piped {
				r.issue(stepStream)
				break
			}
			r.issue(stepIter)
		case stepStream:
			r.op = cuda.Op{ID: cuda.CallStreamCreate}
			r.issue(stepMalloc)
		case stepIter:
			switch {
			case r.iter < r.iters && piped:
				r.lane = r.iter % 2
				if r.iter >= 2 { // reclaim the lane's buffer: its previous round must be done
					r.iter++
					r.op = cuda.Op{ID: cuda.CallStreamSync, Stream: r.st[r.lane]}
					r.issue(stepCPU)
					continue
				}
			case piped:
				r.at, r.lane = stepDrain, 0
				continue
			case r.iter == r.iters:
				r.op = cuda.Op{ID: cuda.CallDeviceSync}
				r.issue(stepFree)
				continue
			}
			r.iter++
			r.at = stepCPU
		case stepCPU:
			r.at, r.left = stepH2D, prof.H2DPerIter
			if prof.CPUPerIter > 0 {
				d.Sleep(prof.CPUPerIter)
				return false, nil
			}
		case stepH2D:
			if !r.chunk(cuda.H2D) {
				r.at = stepLaunch
			}
		case stepLaunch:
			r.at, r.left = stepD2H, prof.D2HPerIter
			if k := a.kernel(); k.Compute > 0 || k.MemTraffic > 0 {
				r.op = cuda.Op{ID: cuda.CallLaunch, Kernel: k, Stream: r.st[r.lane]}
				r.issue(stepD2H)
			}
		case stepD2H:
			if !r.chunk(cuda.D2H) {
				r.at = stepIter
			}
		case stepDrain:
			r.op = cuda.Op{ID: cuda.CallStreamSync, Stream: r.st[r.lane]}
			r.issue(stepDestroy)
		case stepDestroy:
			r.op = cuda.Op{ID: cuda.CallStreamDestroy, Stream: r.st[r.lane]}
			r.issue(stepFree)
		case stepFree:
			r.op = cuda.Op{ID: cuda.CallFree, Ptr: r.buf[r.lane]}
			switch {
			case piped && r.lane == 0:
				r.lane++
				r.issue(stepDrain)
			case r.main != nil:
				r.issue(stepDone)
			default:
				r.issue(stepExit)
			}
		case stepExit:
			r.op = cuda.Op{ID: cuda.CallThreadExit}
			r.issue(stepDone)
		case stepDone:
			if r.main == nil {
				a.Finished = d.Now()
			}
			return true, nil
		case stepJoin:
			m := r.mt
			if t := &m.th[1]; !t.done.Fired() {
				d.Wait(t.done)
				return false, nil
			}
			for i := range m.th {
				if err := m.th[i].err; err != nil {
					return true, err
				}
			}
			r.at = stepExit
		}
	}
}

// issue makes r.op, written in place, the call in flight, and next the stage
// after it. On a client its threads share, the call first waits for its turn.
func (r *Steps) issue(next stepAt) {
	r.at, r.busy = next, true
	if m := r.main; m != nil && m.mt.shared {
		if m.mt.held {
			r.turn = turnAsk
			return
		}
		m.mt.held = true
	}
	r.c.Issue(&r.op)
}

// chunk issues the next copy of the copy in progress, bounded by the chunk
// size and the buffer, asynchronous on the lane's stream in the pipeline, and
// reports false once the copy is done.
func (r *Steps) chunk(dir cuda.Dir) bool {
	if r.left <= 0 {
		return false
	}
	buf := r.buf[r.lane]
	n := min(r.left, r.a.Profile.ChunkBytes, buf.Size)
	r.left -= n
	r.op = cuda.Op{ID: cuda.CallMemcpy, Dir: dir, Ptr: buf, Bytes: n}
	if r.a.Style == StylePipelined {
		r.op.ID, r.op.Stream = cuda.CallMemcpyAsync, r.st[r.lane]
	}
	r.issue(r.at)
	return true
}

// startThreads starts a multi-threaded application's two threads, the first
// with the odd iteration, and waits for the first to end.
func (r *Steps) startThreads(d *sim.Daemon) {
	k := d.Kernel()
	m := r.mt
	if m == nil {
		m = &threads{}
		for i := range m.th {
			t := &m.th[i]
			t.done = k.NewEvent()
			t.nameFn = func() string { return fmt.Sprintf("app-%d-t%d", t.s.a.ID, t.s.ti) }
			t.stepFn = t.step
		}
		r.mt = m
	}
	m.shared, m.held = r.c == r.c1, false
	for i, c := range [2]cuda.Stepper{r.c, r.c1} {
		t := &m.th[i]
		t.s = Steps{a: r.a, c: c, main: r, ti: i, iters: r.iters / 2}
		if i < r.iters%2 {
			t.s.iters++
		}
		t.done.Reset()
		t.err = nil
		k.StartDaemon(&t.d, t.nameFn, t.stepFn)
	}
	r.at = stepJoin
	d.Wait(m.th[0].done)
}

// step runs the thread's machine; at its end the application may join it.
func (t *thread) step(d *sim.Daemon) {
	done, err := t.s.Step(d)
	if !done {
		return
	}
	t.err = err
	t.done.Fire()
	d.Exit()
}

// fail wraps the failed call's error with the application, the thread and
// what the call was doing.
func (r *Steps) fail(err error) error {
	what := ""
	switch r.op.ID {
	case cuda.CallMemcpy, cuda.CallMemcpyAsync:
		what = "h2d"
		if r.op.Dir == cuda.D2H {
			what = "d2h"
		}
	case cuda.CallLaunch:
		what = "launch"
	case cuda.CallDeviceSync, cuda.CallStreamSync:
		what = "sync"
		if r.at == stepDestroy {
			what = "drain"
		}
	case cuda.CallStreamDestroy:
		what = "destroy"
	case cuda.CallFree:
		what = "free"
	case cuda.CallThreadExit:
		what = "exit"
	}
	id := r.a.ID
	switch {
	case what == "exit" || (r.a.Style == StylePipelined && what != ""):
		return fmt.Errorf("app %d %s: %w", id, what, err)
	case what != "":
		err = fmt.Errorf("%s: %w", what, err)
	}
	if r.main != nil {
		return fmt.Errorf("app %d thread %d: %w", id, r.ti, err)
	}
	return fmt.Errorf("app %d: %w", id, err)
}
