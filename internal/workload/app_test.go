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
	rt := cuda.NewRuntime(k, []*gpu.Device{dev}, cuda.Config{})
	app := &App{Profile: ProfileFor(MonteCarlo), Style: style, ID: 7}
	var err error
	k.Go("app", func(p *sim.Proc) {
		app.Submitted = p.Now()
		if style == StyleMultiThread {
			err = app.RunThreaded(p, func(tp *sim.Proc) cuda.Client { return rt.NewThread(tp, app.ID) }, 2)
			return
		}
		err = app.Run(rt.NewThread(p, app.ID))
	})
	k.Run()
	return app, dev.Stats(), err
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
