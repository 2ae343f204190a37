package workload

import (
	"fmt"

	"repro/internal/cuda"
	"repro/internal/sim"
)

// Steps runs a sync application (StyleSync) as a daemon's step machine: the
// calls runSync makes on a process — select a device, allocate, per iteration
// CPU → chunked H2D → launch → chunked D2H, synchronize, free, exit — with the
// same arguments in the same order, through a cuda.Stepper, so that each wait
// ends the daemon's step instead of parking a process. App.Run on a coroutine
// is its reference.
type Steps struct {
	a    *App
	c    cuda.Stepper
	at   stepAt
	busy bool    // op is in flight
	op   cuda.Op // the call made last
	iter int     // iterations begun
	left int64   // bytes the copy in progress has still to move
	buf  cuda.Ptr
}

// stepAt is where the machine goes once the call in flight is over.
type stepAt uint8

const (
	stepStart  stepAt = iota // take the start time, select a device
	stepMalloc               // allocate the staging buffer
	stepIter                 // begin the next iteration, or synchronize
	stepH2D                  // copy the iteration's input in, a chunk a call
	stepLaunch               // launch the kernel
	stepD2H                  // copy the output back, a chunk a call
	stepFree                 // free the buffer
	stepExit                 // exit the thread
	stepDone                 // take the finish time
)

// Start makes r the machine of a's run through c.
func (r *Steps) Start(a *App, c cuda.Stepper) { *r = Steps{a: a, c: c} }

// Step runs the machine from d's step until it waits (false) or the
// application is over (true), with runSync's error, if any.
func (r *Steps) Step(d *sim.Daemon) (bool, error) {
	a, prof := r.a, &r.a.Profile
	for {
		if r.busy {
			if !r.c.Await(d) {
				return false, nil
			}
			r.busy = false
			ptr, err := r.c.Result()
			if err != nil {
				return true, r.fail(err)
			}
			if r.op.ID == cuda.CallMalloc {
				r.buf = ptr
			}
		}
		switch r.at {
		case stepStart:
			a.Started = d.Now()
			r.op = cuda.Op{ID: cuda.CallSetDevice, Dev: a.PreferredDev}
			r.issue(stepMalloc)
		case stepMalloc:
			r.op = cuda.Op{ID: cuda.CallMalloc, Bytes: prof.BufBytes}
			r.issue(stepIter)
		case stepIter:
			if r.iter == prof.Iters {
				r.op = cuda.Op{ID: cuda.CallDeviceSync}
				r.issue(stepFree)
				break
			}
			r.iter++
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
				r.op = cuda.Op{ID: cuda.CallLaunch, Kernel: k}
				r.issue(stepD2H)
			}
		case stepD2H:
			if !r.chunk(cuda.D2H) {
				r.at = stepIter
			}
		case stepFree:
			r.op = cuda.Op{ID: cuda.CallFree, Ptr: r.buf}
			r.issue(stepExit)
		case stepExit:
			r.op = cuda.Op{ID: cuda.CallThreadExit}
			r.issue(stepDone)
		case stepDone:
			a.Finished = d.Now()
			return true, nil
		}
	}
}

// issue makes r.op, written in place, the call in flight, and next the stage
// after it.
func (r *Steps) issue(next stepAt) {
	r.at, r.busy = next, true
	r.c.Issue(&r.op)
}

// chunk issues the next synchronous memcpy of the copy in progress, bounded as
// copyChunked bounds it, and reports false once the copy is done.
func (r *Steps) chunk(dir cuda.Dir) bool {
	if r.left <= 0 {
		return false
	}
	n := min(r.left, r.a.Profile.ChunkBytes, r.buf.Size)
	r.left -= n
	r.op = cuda.Op{ID: cuda.CallMemcpy, Dir: dir, Ptr: r.buf, Bytes: n}
	r.issue(r.at)
	return true
}

// fail wraps the failed call's error as runSync and syncThread do.
func (r *Steps) fail(err error) error {
	id := r.a.ID
	switch r.op.ID {
	case cuda.CallMemcpy:
		if r.op.Dir == cuda.H2D {
			err = fmt.Errorf("h2d: %w", err)
		} else {
			err = fmt.Errorf("d2h: %w", err)
		}
	case cuda.CallLaunch:
		err = fmt.Errorf("launch: %w", err)
	case cuda.CallDeviceSync:
		err = fmt.Errorf("sync: %w", err)
	case cuda.CallFree:
		err = fmt.Errorf("free: %w", err)
	case cuda.CallThreadExit:
		return fmt.Errorf("app %d exit: %w", id, err)
	}
	return fmt.Errorf("app %d: %w", id, err)
}
