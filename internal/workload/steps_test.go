package workload

import (
	"errors"
	"reflect"
	"testing"

	"repro/internal/cuda"
	"repro/internal/gpu"
	"repro/internal/sim"
)

var errInjected = errors.New("injected")

// failingClient is a thread whose nth call (counting from 1; 0 = none) fails.
type failingClient struct {
	*cuda.Thread
	n, calls int
}

func (f *failingClient) fails() bool { f.calls++; return f.calls == f.n }

func (f *failingClient) SetDevice(dev int) error {
	if f.fails() {
		return errInjected
	}
	return f.Thread.SetDevice(dev)
}

func (f *failingClient) Malloc(bytes int64) (cuda.Ptr, error) {
	if f.fails() {
		return cuda.Ptr{}, errInjected
	}
	return f.Thread.Malloc(bytes)
}

func (f *failingClient) Memcpy(dir cuda.Dir, p cuda.Ptr, bytes int64) error {
	if f.fails() {
		return errInjected
	}
	return f.Thread.Memcpy(dir, p, bytes)
}

func (f *failingClient) Launch(k cuda.Kernel, s cuda.StreamID) error {
	if f.fails() {
		return errInjected
	}
	return f.Thread.Launch(k, s)
}

func (f *failingClient) DeviceSynchronize() error {
	if f.fails() {
		return errInjected
	}
	return f.Thread.DeviceSynchronize()
}

func (f *failingClient) Free(p cuda.Ptr) error {
	if f.fails() {
		return errInjected
	}
	return f.Thread.Free(p)
}

func (f *failingClient) ThreadExit() error {
	if f.fails() {
		return errInjected
	}
	return f.Thread.ThreadExit()
}

// failingStepper is the same thread driven as a Stepper.
type failingStepper struct {
	failingClient
	failed bool
}

func (f *failingStepper) Issue(op *cuda.Op) {
	if f.failed = f.fails(); !f.failed {
		f.Thread.Issue(op)
	}
}

func (f *failingStepper) Await(d *sim.Daemon) bool { return f.failed || f.Thread.Await(d) }

func (f *failingStepper) Result() (cuda.Ptr, error) {
	if f.failed {
		return cuda.Ptr{}, errInjected
	}
	return f.Thread.Result()
}

// stepsRun is what one sync request leaves.
type stepsRun struct {
	started, finished sim.Time
	calls             int
	err               string
	stats             gpu.Stats
}

// runSteps runs one MC request in StyleSync on a bare runtime over one device
// with its nth call failing: through Steps on a daemon with steps, else
// through App.Run on a process.
func runSteps(t *testing.T, spec gpu.Spec, n int, steps bool) stepsRun {
	t.Helper()
	k := sim.NewKernel(1)
	defer k.Close()
	dev := gpu.NewDevice(k, spec, 0)
	rt := cuda.NewRuntime(k, []*gpu.Device{dev}, cuda.Config{})
	app := &App{Profile: ProfileFor(MonteCarlo), ID: 7}
	var out stepsRun
	var err error
	if steps {
		var th cuda.Thread
		rt.InitThread(&th, nil, app.ID)
		c := &failingStepper{failingClient: failingClient{Thread: &th, n: n}}
		var r Steps
		k.GoDaemon("app", func(d *sim.Daemon) {
			if r.a == nil {
				app.Submitted = d.Now()
				r.Start(app, c)
			}
			done, e := r.Step(d)
			if done {
				err, out.calls = e, c.calls
				d.Exit()
			}
		})
	} else {
		k.Go("app", func(p *sim.Proc) {
			app.Submitted = p.Now()
			c := &failingClient{Thread: rt.NewThread(p, app.ID), n: n}
			err, out.calls = app.Run(c), c.calls
		})
	}
	k.Run()
	out.started, out.finished, out.stats = app.Started, app.Finished, dev.Stats()
	if err != nil {
		out.err = err.Error()
	}
	return out
}

// TestStepsMatchRunSync runs a sync request through Steps and through App.Run,
// with every call in turn failing and with none, on a device that fits its
// buffer and on one that does not: the two make the same calls, start and
// finish at the same instants, leave the device the same and fail with the
// same error.
func TestStepsMatchRunSync(t *testing.T) {
	small := gpu.TeslaC2050
	small.MemBytes = ProfileFor(MonteCarlo).BufBytes / 2
	for _, spec := range []gpu.Spec{gpu.TeslaC2050, small} {
		calls := runSteps(t, spec, 0, false).calls
		for n := 0; n <= calls; n++ {
			want, got := runSteps(t, spec, n, false), runSteps(t, spec, n, true)
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("%d bytes, call %d failing: steps %+v\nApp.Run %+v", spec.MemBytes, n, got, want)
			}
			if (n > 0 || spec.MemBytes < gpu.TeslaC2050.MemBytes) != (want.err != "") {
				t.Fatalf("%d bytes, call %d failing: err %q", spec.MemBytes, n, want.err)
			}
		}
	}
}
