package core

import (
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"sort"

	"repro/internal/cuda"
	"repro/internal/interpose"
	"repro/internal/metrics"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/workload"
)

// RunResult aggregates one experiment run.
type RunResult struct {
	// TenantService is the total attained GPU service per tenant (the
	// fairness experiments' allocation measure).
	TenantService map[int64]sim.Time

	// TenantWeight records each tenant's configured weight.
	TenantWeight map[int64]int

	// Errors collects application failures (should stay empty).
	Errors []string

	// EndTime is the virtual time at which the last event completed.
	EndTime sim.Time

	// Requests is the per-request event log (completion order; use
	// SortedRequests for submission order). It is the only record of
	// completions: Completions, AvgCompletion and Kinds read it.
	Requests []RequestEvent

	Launched int
	Finished int

	// Lost counts applications terminated by cuda.ErrBackendLost: their
	// backend died mid-flight and the pending work was not provably safe
	// to replay. Lost requests are reported separately from Errors —
	// losing work to an injected fault is an outcome, not a bug.
	Lost int

	// Recovered counts applications that completed despite being touched
	// by a backend failure (a call timeout or a failover to another GPU).
	Recovered int

	// Slice-placement outcomes (all zero unless the run used slice
	// streams; see internal/core/slices.go).
	SliceCarves   int // slices carved over the run
	SliceReleases int // slices destroyed when their tenant departed
	SliceParks    int // placement attempts that had to park for capacity

	// AdmissionWaits is the per-tenant wait from the tenant's first
	// placement attempt to its slice being carved (zero when it was placed
	// immediately) — the admission component of the tenants' SLO.
	AdmissionWaits []sim.Time

	// StrandedIntegral/StrandedHorizon hold the time-weighted integral of
	// the fleet's stranded-capacity fraction and the virtual time it was
	// integrated over; StrandedRatio() is their quotient.
	StrandedIntegral float64
	StrandedHorizon  sim.Time
}

// StrandedRatio returns the time-averaged stranded-capacity fraction of the
// partitionable fleet: free capacity weighted by the share of slice
// profiles it cannot serve (see balancer.FragScore), averaged over devices
// and virtual time. Zero for fleets without partitionable devices.
func (r *RunResult) StrandedRatio() float64 {
	if r.StrandedHorizon <= 0 {
		return 0
	}
	return r.StrandedIntegral / float64(r.StrandedHorizon)
}

// AvgAdmissionWait returns the mean slice-admission wait (0 with no slices).
func (r *RunResult) AvgAdmissionWait() sim.Time {
	if len(r.AdmissionWaits) == 0 {
		return 0
	}
	var sum int64
	for _, w := range r.AdmissionWaits {
		sum += int64(w)
	}
	return sim.Time(sum / int64(len(r.AdmissionWaits)))
}

func newRunResult() *RunResult {
	return &RunResult{
		TenantService: make(map[int64]sim.Time),
		TenantWeight:  make(map[int64]int),
	}
}

// NewRunResultForPooling returns an empty result suitable for merging
// replicated runs into.
func NewRunResultForPooling() *RunResult { return newRunResult() }

// Merge pools another run's results into r: request logs append,
// per-tenant services and counters sum, the horizon takes the maximum.
// Pooled averages and ratios then weight every request equally across
// replications.
func (r *RunResult) Merge(o *RunResult) {
	for id, svc := range o.TenantService {
		r.TenantService[id] += svc
	}
	for id, w := range o.TenantWeight {
		r.TenantWeight[id] = w
	}
	r.Errors = append(r.Errors, o.Errors...)
	r.Requests = append(r.Requests, o.Requests...)
	r.Launched += o.Launched
	r.Finished += o.Finished
	r.Lost += o.Lost
	r.Recovered += o.Recovered
	r.SliceCarves += o.SliceCarves
	r.SliceReleases += o.SliceReleases
	r.SliceParks += o.SliceParks
	r.AdmissionWaits = append(r.AdmissionWaits, o.AdmissionWaits...)
	r.StrandedIntegral += o.StrandedIntegral
	r.StrandedHorizon += o.StrandedHorizon
	if o.EndTime > r.EndTime {
		r.EndTime = o.EndTime
	}
}

// Completions returns the arrival-to-completion latencies of k's finished
// requests (those with an empty Err), in log order.
func (r *RunResult) Completions(k workload.Kind) []sim.Time {
	var ts []sim.Time
	for _, ev := range r.Requests {
		if ev.Kind == k && ev.Err == "" {
			ts = append(ts, ev.CompletionTime())
		}
	}
	return ts
}

// AvgCompletion returns the mean completion latency for a class (0 if the
// class never completed).
func (r *RunResult) AvgCompletion(k workload.Kind) sim.Time {
	var sum, n int64
	for _, ev := range r.Requests {
		if ev.Kind == k && ev.Err == "" {
			sum += int64(ev.CompletionTime())
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return sim.Time(sum / n)
}

// PercentileCompletion returns the p-quantile (0..1) of a class's
// completion latencies.
func (r *RunResult) PercentileCompletion(k workload.Kind, p float64) sim.Time {
	ts := r.Completions(k)
	if len(ts) == 0 {
		return 0
	}
	xs := make([]float64, len(ts))
	for i, t := range ts {
		xs[i] = float64(t)
	}
	return sim.Time(metrics.Percentile(xs, p))
}

// Kinds returns the classes with completions, in Kind order.
func (r *RunResult) Kinds() []workload.Kind {
	var ks []workload.Kind
	for _, ev := range r.Requests {
		if ev.Err == "" && !slices.Contains(ks, ev.Kind) {
			ks = append(ks, ev.Kind)
		}
	}
	slices.Sort(ks)
	return ks
}

// FairnessAllocations returns the per-tenant weighted allocations
// x_i = service_i / weight_i, ordered by tenant id — the inputs to Jain's
// index.
func (r *RunResult) FairnessAllocations() []float64 {
	ids := make([]int64, 0, len(r.TenantService))
	for id := range r.TenantService {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	xs := make([]float64, 0, len(ids))
	for _, id := range ids {
		w := r.TenantWeight[id]
		if w <= 0 {
			w = 1
		}
		xs = append(xs, float64(r.TenantService[id])/float64(w))
	}
	return xs
}

// Run launches the request streams and drives the simulation to completion,
// returning the aggregated results.
func (c *Cluster) Run(streams []workload.StreamSpec) (*RunResult, error) {
	return c.run(streams, c.coord.Run)
}

// RunUntil drives the simulation to the given virtual horizon and measures
// per-tenant *delivered* GPU service over that contention window directly
// from the devices (excluding any context-switch overhead the driver
// charged). This is the fairness experiments' measurement: streams are
// sized to keep every tenant backlogged through the horizon, and the Jain
// index is computed over service rates while tenants actually compete.
func (c *Cluster) RunUntil(streams []workload.StreamSpec, horizon sim.Time) (*RunResult, error) {
	r, err := c.run(streams, func() { c.coord.RunUntil(horizon) })
	if err != nil {
		return nil, err
	}
	// Replace the completion-derived tenant accounting with the devices'
	// view at the horizon.
	r.TenantService = make(map[int64]sim.Time)
	for _, e := range c.envs {
		for _, app := range e.apps {
			var svc sim.Time
			for _, d := range c.devices {
				// Delivered service only: the driver's context-switch charge
				// is excluded here (it contaminates the per-process-context
				// schedulers' *own* accounting — and hence their decisions —
				// but the experiment measures what applications actually
				// received).
				svc += d.AppService(app.id)
			}
			r.TenantService[app.tenant] += svc
		}
	}
	return r, nil
}

// run is the one launch/drive/collect body behind Run and RunUntil: drive
// advances the coordinator, to quiescence or to a horizon.
func (c *Cluster) run(streams []workload.StreamSpec, drive func()) (*RunResult, error) {
	if err := c.prepareSlices(streams); err != nil {
		return nil, err
	}
	for si, s := range streams {
		if s.Node < 0 || s.Node >= len(c.nodes) {
			return nil, fmt.Errorf("core: stream %d arrives at unknown node %d", si, s.Node)
		}
		c.launchStream(si, s)
	}
	drive()
	return c.collect(), nil
}

// launchStream starts the per-stream arrival daemon on the kernel of the
// stream's arrival node.
func (c *Cluster) launchStream(si int, s workload.StreamSpec) {
	e := c.nodes[s.Node].e
	a := take(&e.arrivals)
	if a.stepFn == nil {
		a.nameFn, a.stepFn = a.name, a.step
		e.made.arrivals = append(e.made.arrivals, a) // bounded by peak streams
	}
	if c.cfg.Traces != nil {
		// Shared immutable trace; the book derives it with the same seed
		// formula, so the two paths are bit-identical.
		a.times = c.cfg.Traces.Arrivals(c.cfg.Seed, si, s)
	} else {
		rng := rand.New(rand.NewSource(workload.StreamSeed(c.cfg.Seed, si)))
		a.times = s.Arrivals(rng)
	}
	a.e, a.s, a.si, a.i = e, s, si, 0
	e.k.StartDaemon(&a.d, a.nameFn, a.stepFn)
}

// arrival is a stream's arrival daemon, which starts each request on a
// frontend. Its frontends read the stream from it, so it is reused only once
// its cluster has closed.
type arrival struct {
	d     sim.Daemon
	e     *slab
	s     workload.StreamSpec
	si, i int // stream si, whose ith request is next
	times []sim.Time

	nameFn func() string // its name and step, bound once
	stepFn func(*sim.Daemon)
}

func (a *arrival) name() string { return fmt.Sprintf("stream-%d-%s", a.si, a.s.Kind) }

func (a *arrival) step(d *sim.Daemon) {
	e, s := a.e, &a.s
	for ; a.i < len(a.times); a.i++ {
		if at := a.times[a.i]; at > d.Now() {
			d.Sleep(at - d.Now())
			return
		}
		app := workload.App{
			Profile: workload.ProfileFor(s.Kind),
			Style:   s.Style,
			ID:      e.nextAppID(),
			Tenant:  s.Tenant,
			Weight:  s.Weight,
			// The application's programmed (static) device choice — the
			// one the CUDA-runtime baseline honours and Strings overrides.
			PreferredDev: 0,
		}
		e.results.Launched++
		e.results.TenantWeight[s.Tenant] = s.Weight
		e.apps = append(e.apps, appTenant{app.ID, s.Tenant}) // bounded by the requests launched
		e.startFrontend(app, s, a.si, a.i)
	}
	d.Exit()
}

// appName names the frontend of stream si's nth request.
func appName(kind workload.Kind, si, n int) string {
	return fmt.Sprintf("app-%s-%d.%d", kind, si, n)
}

// record books a finished application's outcome: its request span, the
// result sink's counters, the request log and its tenant's GPU service. ipose
// is its interposer, nil under CUDA.
func (e *slab) record(app *workload.App, s workload.StreamSpec, ipose *interpose.Interposer, reqSpan trace.SpanID, err error) {
	c := e.c
	gid := -1
	if ipose != nil {
		gid = int(ipose.GID())
	} else if devs := c.nodeDev[s.Node]; len(devs) > 0 {
		gid = devs[app.PreferredDev%len(devs)].ID()
	}
	e.rec.SetGID(reqSpan, gid)
	e.rec.End(reqSpan, e.k.Now())
	if err != nil {
		if errors.Is(err, cuda.ErrBackendLost) {
			e.results.Lost++
		} else {
			e.results.Errors = append(e.results.Errors, err.Error())
		}
		e.recordRequest(app, s, gid, err.Error())
		return
	}
	e.results.Finished++
	if ipose != nil && ipose.Disrupted() {
		e.results.Recovered++
	}
	e.recordRequest(app, s, gid, "")

	// Tenant GPU service for fairness accounting.
	var gputime sim.Time
	if ipose != nil {
		if fb := ipose.LastFeedback; fb != nil {
			gputime = fb.GPUTime
		}
	} else {
		for _, d := range c.nodeDev[s.Node] {
			gputime += d.AppService(app.ID)
		}
	}
	e.results.TenantService[s.Tenant] += gputime
}
