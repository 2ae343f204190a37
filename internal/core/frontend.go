package core

import (
	"repro/internal/cuda"
	"repro/internal/interpose"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/workload"
)

// frontend is an application's host thread run as a daemon: the
// application's step machine (workload.Steps) over its CUDA client — the
// interposer under Strings and Rain, a thread of a private process under
// CUDA — every piece held by value, the process included. A multi-threaded
// application's second thread calls through the same interposer, or through a
// second thread of the process. An exited frontend, daemon and all, serves
// the next request on its kernel.
type frontend struct {
	d     sim.Daemon
	e     *slab
	app   workload.App
	steps workload.Steps
	ip    interpose.Interposer
	rt    cuda.Runtime
	th    [2]cuda.Thread
	idle  bool // on its slab's free list

	s     *workload.StreamSpec
	si, n int          // stream si's nth request
	req   trace.SpanID // its request span
	begun bool

	// Its methods as values, bound once: a reused frontend starts allocation-free.
	nameFn func() string
	stepFn func(*sim.Daemon)
}

// startFrontend starts app, stream si's nth request, on a frontend daemon.
func (e *slab) startFrontend(app workload.App, s *workload.StreamSpec, si, n int) {
	f := take(&e.frontends)
	if f.stepFn == nil {
		f.nameFn, f.stepFn = f.name, f.step
		e.made.frontends = append(e.made.frontends, f) // bounded by peak live frontends
	}
	f.e, f.idle = e, false
	f.app, f.s, f.si, f.n = app, s, si, n
	e.k.StartDaemon(&f.d, f.nameFn, f.stepFn)
}

func (f *frontend) name() string { return appName(f.s.Kind, f.si, f.n) }

func (f *frontend) step(d *sim.Daemon) {
	e, app, s := f.e, &f.app, f.s
	if !f.begun {
		f.begun = true
		app.Submitted = d.Now()
		f.req = e.rec.Begin(trace.KRequest, 0, d.Now(), s.Kind.String(), app.ID, -1, s.Tenant)
		c, c1 := f.clients()
		f.steps.Start(app, c, c1)
	}
	done, err := f.steps.Step(d)
	if !done {
		return
	}
	var ipose *interpose.Interposer
	if e.c.cfg.Mode != ModeCUDA {
		ipose = &f.ip
	}
	e.record(app, *s, ipose, f.req, err)
	f.begun = false
	d.Exit()
	f.rt.Release()
	// A timed reply wait leaves its deadline queued, stale, once a reply
	// ends it, and a daemon with an activation pending cannot start over: a
	// frontend that ran with recovery armed is not reused in this run.
	if !e.c.cfg.Recovery.Enabled() {
		f.idle = true
		e.frontends = append(e.frontends, f) // bounded by peak live frontends
	}
}

// clients readies the application's CUDA clients, its main thread's and a
// second thread's: under CUDA two threads of a private runtime, seeing only
// the node's devices; otherwise the one interposer.
func (f *frontend) clients() (c, c1 cuda.Stepper) {
	e, cl, s, id := f.e, f.e.c, f.s, f.app.ID
	if cl.cfg.Mode == ModeCUDA {
		f.rt.Init(e.k, cl.nodeDev[s.Node], cl.cudaConfig())
		f.rt.SetOwner(id)
		f.rt.InitThread(&f.th[0], nil, id)
		f.rt.InitThread(&f.th[1], nil, id)
		return &f.th[0], &f.th[1]
	}
	f.ip.Init(&cl.nodes[s.Node], e.k, id, s.Tenant, s.Weight, s.Kind.String(), s.Node, cl.cfg.Mode == ModeStrings)
	f.ip.SetRecovery(cl.cfg.Recovery)
	f.ip.SetTrace(e.rec, f.req)
	return &f.ip, &f.ip
}
