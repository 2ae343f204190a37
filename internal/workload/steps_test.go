package workload

import (
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"testing"

	"repro/internal/cuda"
	"repro/internal/gpu"
	"repro/internal/sim"
)

var errInjected = errors.New("injected")

// failingStepper is a thread of a bare runtime whose nth call (counting from
// 1 over every thread that shares calls; 0 = none) fails.
type failingStepper struct {
	*cuda.Thread
	n      int
	calls  *int
	failed bool
}

func (f *failingStepper) Issue(op *cuda.Op) {
	*f.calls++
	if f.failed = *f.calls == f.n; !f.failed {
		f.Thread.Issue(op)
	}
}

func (f *failingStepper) Await(d *sim.Daemon) bool { return f.failed || f.Thread.Await(d) }

func (f *failingStepper) Result() (cuda.Ret, error) {
	if f.failed {
		return cuda.Ret{}, errInjected
	}
	return f.Thread.Result()
}

// stepsRun is what one request leaves.
type stepsRun struct {
	started, finished sim.Time
	calls             int
	err               string
	stats             gpu.Stats
}

// runBare runs app to its end on a daemon through c, its second thread, if
// any, through c1, and returns its error.
func runBare(k *sim.Kernel, app *App, c, c1 cuda.Stepper) error {
	var r Steps
	var err error
	k.GoDaemon("app", func(d *sim.Daemon) {
		if r.a == nil {
			app.Submitted = d.Now()
			r.Start(app, c, c1)
		}
		if done, e := r.Step(d); done {
			err = e
			d.Exit()
		}
	})
	k.Run()
	return err
}

// runSteps runs one MC request in style on a bare runtime over one device
// with its nth call failing.
func runSteps(spec gpu.Spec, style Style, n int) stepsRun {
	k := sim.NewKernel(1)
	defer k.Close()
	dev := gpu.NewDevice(k, spec, 0)
	rt := cuda.NewRuntime(k, []*gpu.Device{dev}, cuda.Config{})
	app := &App{Profile: ProfileFor(MonteCarlo), Style: style, ID: 7}
	var th [2]cuda.Thread
	var out stepsRun
	c := [2]*failingStepper{{Thread: &th[0], n: n, calls: &out.calls}, {Thread: &th[1], n: n, calls: &out.calls}}
	rt.InitThread(&th[0], nil, app.ID)
	rt.InitThread(&th[1], nil, app.ID)
	err := runBare(k, app, c[0], c[1])
	out.started, out.finished, out.stats = app.Started, app.Finished, dev.Stats()
	if err != nil {
		out.err = err.Error()
	}
	return out
}

// TestStepsMatchRunSync runs a request of each style, with every call in turn
// failing and with none, on a device that fits its buffers and on one that
// does not, and holds the runs to those the style's program made on a process
// before the step machine replaced it (runSync for sync): the same calls, the
// same start and finish instants, the device left the same, the same errors.
// Those runs are pinned as one digest a style.
func TestStepsMatchRunSync(t *testing.T) {
	small := gpu.TeslaC2050
	small.MemBytes = ProfileFor(MonteCarlo).BufBytes / 2
	for _, tc := range []struct {
		style Style
		runs  int
		want  string
	}{
		{StyleSync, 537, "d5c82e64bdafeefd1f18978b4def51c505d63624d9c1bd83d415817f1e5c7582"},
		{StylePipelined, 558, "9f27b10e081fe92dd5f7c4798a6051b44d24c20aa882c2016aadb6776d7673cc"},
		{StyleMultiThread, 543, "f5c90dd2c0caab79ac62547c3505868370cf2320415a7c9ed821158615a2757c"},
	} {
		h := sha256.New()
		runs := 0
		for _, spec := range []gpu.Spec{gpu.TeslaC2050, small} {
			calls := runSteps(spec, tc.style, 0).calls
			for n := 0; n <= calls; n++ {
				out := runSteps(spec, tc.style, n)
				if (n > 0 || spec.MemBytes < gpu.TeslaC2050.MemBytes) != (out.err != "") {
					t.Fatalf("%v, %d bytes, call %d failing: err %q", tc.style, spec.MemBytes, n, out.err)
				}
				fmt.Fprintf(h, "%+v\n", out)
				runs++
			}
		}
		if d := hex.EncodeToString(h.Sum(nil)); runs != tc.runs || d != tc.want {
			t.Errorf("%v: %d runs, digest %s; want %d, %s", tc.style, runs, d, tc.runs, tc.want)
		}
	}
}
