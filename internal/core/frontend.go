package core

import (
	"repro/internal/cuda"
	"repro/internal/interpose"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/workload"
)

// frontend is a sync application's host thread run as a daemon: the
// application's step machine (workload.Steps) over its CUDA client — the
// interposer under Strings and Rain, a thread of a private runtime under
// CUDA — every piece held by value. An exited frontend, daemon and all, serves
// the next sync request on its kernel. runApp is the same request on a
// coroutine, and the reference this is tested against.
type frontend struct {
	d     sim.Daemon
	e     *shardEnv
	app   workload.App
	steps workload.Steps
	ip    interpose.Interposer
	th    cuda.Thread

	s     *workload.StreamSpec
	si, n int          // stream si's nth request
	req   trace.SpanID // its request span
	begun bool

	// Its methods as values, bound once: a reused frontend starts allocation-free.
	nameFn func() string
	stepFn func(*sim.Daemon)
}

// startFrontend starts app, stream si's nth request, on a frontend daemon.
func (e *shardEnv) startFrontend(app workload.App, s *workload.StreamSpec, si, n int) {
	var f *frontend
	if i := len(e.frontends) - 1; i >= 0 {
		f, e.frontends = e.frontends[i], e.frontends[:i]
	} else {
		f = &frontend{e: e}
		f.nameFn, f.stepFn = f.name, f.step
	}
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
		f.steps.Start(app, f.client())
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
	e.frontends = append(e.frontends, f) // bounded by peak live frontends
}

// client readies the application's CUDA client, as runApp makes it.
func (f *frontend) client() cuda.Stepper {
	e, c, s := f.e, f.e.c, f.s
	if c.cfg.Mode == ModeCUDA {
		rt := cuda.NewRuntime(e.k, c.nodeDev[s.Node], c.cudaConfig())
		rt.SetOwner(f.app.ID)
		rt.InitThread(&f.th, nil, f.app.ID)
		return &f.th
	}
	f.ip.Init(c.nodes[s.Node], e.k, f.app.ID, s.Tenant, s.Weight, s.Kind.String(), s.Node, c.cfg.Mode == ModeStrings)
	f.ip.SetTrace(e.rec, f.req)
	return &f.ip
}
