package workload

import (
	"fmt"

	"repro/internal/cuda"
	"repro/internal/sim"
)

// Style selects how an application issues its GPU work.
type Style int

// Application styles.
const (
	// StyleSync is the CUDA SDK default: synchronous memcpys and implicit
	// ordering on the default stream. The Strings runtime recovers the
	// asynchrony via interposition.
	StyleSync Style = iota
	// StylePipelined is a hand-optimized application: double-buffered
	// explicit streams with asynchronous copies, overlapping its own CPU,
	// transfer and kernel phases without any runtime help.
	StylePipelined
	// StyleMultiThread splits the iterations across two host threads of
	// one process, exercising the interposer's per-device buffer
	// synchronization (cross-thread RPC ordering).
	StyleMultiThread
)

// String names the style.
func (s Style) String() string {
	switch s {
	case StylePipelined:
		return "pipelined"
	case StyleMultiThread:
		return "multithread"
	default:
		return "sync"
	}
}

// App is one executable application instance (one end-user request in the
// cloud service model).
type App struct {
	Profile Profile
	Style   Style
	ID      int   // unique application/request id
	Tenant  int64 // owning tenant
	Weight  int   // tenant weight (TFS)

	// PreferredDev is the device the application would program statically
	// (cudaSetDevice target); the CUDA-runtime baseline honours it, Strings
	// overrides it.
	PreferredDev int

	// Timing, filled by Run.
	Submitted sim.Time // arrival at the node
	Started   sim.Time // first instruction
	Finished  sim.Time // completion
}

// Run executes the application against a CUDA client in its configured
// style.
func (a *App) Run(c cuda.Client) error {
	if a.Style == StylePipelined {
		return a.runPipelined(c)
	}
	return a.runSync(c)
}

// runPipelined is the hand-optimized variant: two streams, two buffers,
// asynchronous copies, with each stream's previous round synchronized just
// before its buffer is reused.
func (a *App) runPipelined(c cuda.Client) error {
	p := c.Proc()
	a.Started = p.Now()
	if err := c.SetDevice(a.PreferredDev); err != nil {
		return fmt.Errorf("app %d: %w", a.ID, err)
	}
	var bufs [2]cuda.Ptr
	var streams [2]cuda.StreamID
	for i := range bufs {
		var err error
		if bufs[i], err = c.Malloc(a.Profile.BufBytes); err != nil {
			return fmt.Errorf("app %d: %w", a.ID, err)
		}
		if streams[i], err = c.StreamCreate(); err != nil {
			return fmt.Errorf("app %d: %w", a.ID, err)
		}
	}
	kern := a.kernel()
	for i := 0; i < a.Profile.Iters; i++ {
		lane := i % 2
		if i >= 2 {
			// Reclaim the lane's buffer: its previous round must be done.
			if err := c.StreamSynchronize(streams[lane]); err != nil {
				return fmt.Errorf("app %d sync: %w", a.ID, err)
			}
		}
		if a.Profile.CPUPerIter > 0 {
			p.Sleep(a.Profile.CPUPerIter)
		}
		if err := a.copyChunkedAsync(c, cuda.H2D, bufs[lane], a.Profile.H2DPerIter, streams[lane]); err != nil {
			return fmt.Errorf("app %d h2d: %w", a.ID, err)
		}
		if kern.Compute > 0 || kern.MemTraffic > 0 {
			if err := c.Launch(kern, streams[lane]); err != nil {
				return fmt.Errorf("app %d launch: %w", a.ID, err)
			}
		}
		if err := a.copyChunkedAsync(c, cuda.D2H, bufs[lane], a.Profile.D2HPerIter, streams[lane]); err != nil {
			return fmt.Errorf("app %d d2h: %w", a.ID, err)
		}
	}
	for i := range streams {
		if err := c.StreamSynchronize(streams[i]); err != nil {
			return fmt.Errorf("app %d drain: %w", a.ID, err)
		}
		if err := c.StreamDestroy(streams[i]); err != nil {
			return fmt.Errorf("app %d destroy: %w", a.ID, err)
		}
		if err := c.Free(bufs[i]); err != nil {
			return fmt.Errorf("app %d free: %w", a.ID, err)
		}
	}
	if err := c.ThreadExit(); err != nil {
		return fmt.Errorf("app %d exit: %w", a.ID, err)
	}
	a.Finished = p.Now()
	return nil
}

// copyChunkedAsync moves total bytes through the buffer in bounded
// asynchronous memcpys on the given stream.
func (a *App) copyChunkedAsync(c cuda.Client, dir cuda.Dir, buf cuda.Ptr, total int64, s cuda.StreamID) error {
	for total > 0 {
		n := total
		if n > a.Profile.ChunkBytes {
			n = a.Profile.ChunkBytes
		}
		if n > buf.Size {
			n = buf.Size
		}
		if err := c.MemcpyAsync(dir, buf, n, s); err != nil {
			return err
		}
		total -= n
	}
	return nil
}

// kernel is the application's per-iteration kernel launch.
func (a *App) kernel() cuda.Kernel {
	return cuda.Kernel{
		Name:       a.Profile.Name,
		Compute:    a.Profile.KernCompute,
		MemTraffic: a.Profile.KernTraffic,
		Occupancy:  a.Profile.KernOcc,
	}
}

// runSync executes the application exactly as the original SDK samples are
// structured: one synchronous thread over every iteration, then exit.
func (a *App) runSync(c cuda.Client) error {
	p := c.Proc()
	a.Started = p.Now()
	if err := a.syncThread(c, a.Profile.Iters); err != nil {
		return fmt.Errorf("app %d: %w", a.ID, err)
	}
	if err := c.ThreadExit(); err != nil {
		return fmt.Errorf("app %d exit: %w", a.ID, err)
	}
	a.Finished = p.Now()
	return nil
}

// syncThread is one synchronous host thread: select a device, allocate a
// staging buffer, then iterate CPU phase → synchronous chunked H2D copies →
// kernel launch → synchronous chunked D2H copies, and finally synchronize
// and free. All GPU work goes to the default stream; any asynchrony is the
// runtime's to discover.
func (a *App) syncThread(c cuda.Client, iters int) error {
	p := c.Proc()
	if err := c.SetDevice(a.PreferredDev); err != nil {
		return err
	}
	buf, err := c.Malloc(a.Profile.BufBytes)
	if err != nil {
		return err
	}
	kern := a.kernel()
	for i := 0; i < iters; i++ {
		if a.Profile.CPUPerIter > 0 {
			p.Sleep(a.Profile.CPUPerIter)
		}
		if err := a.copyChunked(c, cuda.H2D, buf, a.Profile.H2DPerIter); err != nil {
			return fmt.Errorf("h2d: %w", err)
		}
		if kern.Compute > 0 || kern.MemTraffic > 0 {
			if err := c.Launch(kern, cuda.DefaultStream); err != nil {
				return fmt.Errorf("launch: %w", err)
			}
		}
		if err := a.copyChunked(c, cuda.D2H, buf, a.Profile.D2HPerIter); err != nil {
			return fmt.Errorf("d2h: %w", err)
		}
	}
	if err := c.DeviceSynchronize(); err != nil {
		return fmt.Errorf("sync: %w", err)
	}
	if err := c.Free(buf); err != nil {
		return fmt.Errorf("free: %w", err)
	}
	return nil
}

// copyChunked moves total bytes through the staging buffer in bounded
// synchronous memcpys.
func (a *App) copyChunked(c cuda.Client, dir cuda.Dir, buf cuda.Ptr, total int64) error {
	for total > 0 {
		n := total
		if n > a.Profile.ChunkBytes {
			n = a.Profile.ChunkBytes
		}
		if n > buf.Size {
			n = buf.Size
		}
		if err := c.Memcpy(dir, buf, n); err != nil {
			return err
		}
		total -= n
	}
	return nil
}
