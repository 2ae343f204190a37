package workload

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	"repro/internal/cuda"
	"repro/internal/gpu"
	"repro/internal/sim"
)

// runStyle runs one MC request in style on a bare runtime over one device
// with spec, the multi-threaded style on two threads, and returns the
// application, the device's stats and the run's error.
func runStyle(t *testing.T, style Style, spec gpu.Spec) (*App, gpu.Stats, error) {
	t.Helper()
	k := sim.NewKernel(1)
	defer k.Close()
	dev := gpu.NewDevice(k, spec, 0)
	app := &App{Profile: ProfileFor(MonteCarlo), Style: style, ID: 7}
	c, c1 := bareThreads(k, []*gpu.Device{dev}, app.ID)
	err := runBare(k, app, c, c1)
	return app, dev.Stats(), err
}

// bareThreads returns two threads of a bare runtime over devs.
func bareThreads(k *sim.Kernel, devs []*gpu.Device, appID int) (c, c1 *cuda.Thread) {
	rt := cuda.NewRuntime(k, devs, cuda.Config{})
	c, c1 = new(cuda.Thread), new(cuda.Thread)
	rt.InitThread(c, nil, appID)
	rt.InitThread(c1, nil, appID)
	return c, c1
}

func TestEveryStyleOnBareRuntime(t *testing.T) {
	stats := map[Style]gpu.Stats{}
	for _, style := range []Style{StyleSync, StylePipelined, StyleMultiThread} {
		app, st, err := runStyle(t, style, gpu.TeslaC2050)
		if err != nil {
			t.Fatalf("%v: %v", style, err)
		}
		if app.Started > app.Finished {
			t.Errorf("%v: started %v after finishing %v", style, app.Started, app.Finished)
		}
		if app.Finished <= app.Submitted {
			t.Errorf("%v: finished %v, not after submission %v", style, app.Finished, app.Submitted)
		}
		stats[style] = st
	}
	// Two threads splitting the iterations issue the same kernels and
	// copies as one thread running them all.
	sync, mt := stats[StyleSync], stats[StyleMultiThread]
	if sync.KernelsDone == 0 || sync.CopiesDone == 0 {
		t.Fatalf("sync run did no GPU work: %+v", sync)
	}
	if mt.KernelsDone != sync.KernelsDone || mt.CopiesDone != sync.CopiesDone {
		t.Errorf("multithread did %d kernels / %d copies, sync %d / %d",
			mt.KernelsDone, mt.CopiesDone, sync.KernelsDone, sync.CopiesDone)
	}
}

func TestSyncOnTooSmallDeviceFailsAllocation(t *testing.T) {
	spec := gpu.TeslaC2050
	spec.MemBytes = ProfileFor(MonteCarlo).BufBytes / 2
	app, _, err := runStyle(t, StyleSync, spec)
	if !errors.Is(err, cuda.ErrMemoryAllocation) {
		t.Fatalf("err = %v, want one wrapping cuda.ErrMemoryAllocation", err)
	}
	if want := fmt.Sprintf("app %d: ", app.ID); !strings.HasPrefix(err.Error(), want) {
		t.Errorf("err = %q, want prefix %q", err, want)
	}
	if app.Finished != 0 {
		t.Errorf("failed run recorded a finish time %v", app.Finished)
	}
}

// wire stands in for an interposer a multi-threaded application's threads
// share: a call pays a marshalling cost, and a device-to-host copy a round
// trip as well. It logs every call with the thread that made it and when it
// went out and ended.
type wire struct {
	calls []wireCall
	left  int // waits the call in flight has still to make
}

type wireCall struct {
	op       cuda.Op
	by       *sim.Daemon
	from, to sim.Time
}

func (w *wire) Issue(op *cuda.Op) {
	w.calls, w.left = append(w.calls, wireCall{op: *op, to: -1}), 1+int(op.Dir)
}

func (w *wire) Await(d *sim.Daemon) bool {
	c := &w.calls[len(w.calls)-1]
	if c.by == nil {
		c.by, c.from = d, d.Now()
	}
	if w.left--; w.left >= 0 {
		d.Sleep(3 * sim.Microsecond)
		return false
	}
	c.to = d.Now()
	return true
}

func (w *wire) Result() (cuda.Ret, error) {
	return cuda.Ret{Ptr: cuda.Ptr{ID: 1, Size: w.calls[len(w.calls)-1].op.Bytes}}, nil
}

// TestThreadsShareOneClient runs a multi-threaded application over one client
// its two threads share, as Strings shares an interposer between them: one
// call goes out at a time, each once the one before it is over, and the
// threads take turns; while one waits for a device-to-host copy's data, the
// other's next call waits its turn; both make every call of the sync program
// over their share of the iterations, and the application exits once, last.
func TestThreadsShareOneClient(t *testing.T) {
	k := sim.NewKernel(1)
	defer k.Close()
	w := &wire{}
	app := &App{Profile: ProfileFor(MonteCarlo), Style: StyleMultiThread, ID: 7}
	if err := runBare(k, app, w, w); err != nil || app.Finished == 0 {
		t.Fatalf("run: %v, finished at %v", err, app.Finished)
	}
	count, callers := map[cuda.CallID]int{}, map[*sim.Daemon]int{}
	switches, held := 0, 0
	for i, c := range w.calls {
		count[c.op.ID]++
		callers[c.by]++
		if i == 0 {
			continue
		}
		p := w.calls[i-1]
		if p.to < 0 || c.from < p.to {
			t.Fatalf("call %d (%v) went out at %v, before call %d (%v) ended at %v", i, c.op.ID, c.from, i-1, p.op.ID, p.to)
		}
		if c.by != p.by {
			switches++
			if p.op.ID == cuda.CallMemcpy && p.op.Dir == cuda.D2H {
				held++
			}
		}
	}
	t.Run("serializes", func(t *testing.T) {
		if len(callers) != 3 || switches < 4 {
			t.Fatalf("%d callers, %d switches between threads: the threads did not take turns", len(callers), switches)
		}
	})
	t.Run("blocking-call-holds-order", func(t *testing.T) {
		if held == 0 {
			t.Fatal("no call of one thread waited out the other's device-to-host copy")
		}
	})
	t.Run("forwards-every-call", func(t *testing.T) {
		last := w.calls[len(w.calls)-1]
		if count[cuda.CallSetDevice] != 2 || count[cuda.CallMalloc] != 2 || count[cuda.CallDeviceSync] != 2 ||
			count[cuda.CallFree] != 2 || count[cuda.CallLaunch] != app.Profile.Iters ||
			count[cuda.CallThreadExit] != 1 || last.op.ID != cuda.CallThreadExit || callers[last.by] != 1 {
			t.Fatalf("calls %v, the last %v", count, last.op.ID)
		}
	})
}
