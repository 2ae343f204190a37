package cluster

import (
	"fmt"
	"math/rand"
	"sort"

	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/parallel"
	"repro/internal/sim"
	"repro/internal/sweep"
	"repro/internal/trace"
	"repro/internal/workload"
)

// SupernodeResult is one supernode's share of a cluster run.
type SupernodeResult struct {
	Placed   int      // tenants this supernode hosted
	Requests int      // requests submitted
	Finished int      // requests completed
	Events   uint64   // kernel activations dispatched
	EndTime  sim.Time // virtual time the supernode went idle

	// Utilization is the supernode's mean device utilization: attained
	// GPU service summed over tenants, divided by devices × EndTime.
	Utilization float64

	// Run is the full underlying core result (request log included).
	Run *core.RunResult

	// TraceJSONL is the canonical trace export (nil unless Config.Traced).
	TraceJSONL []byte
}

// Result aggregates a cluster-tier run: the placement log, the M supernode
// runs, and the cluster-scope SLO metrics.
type Result struct {
	Policy string

	// Log is the placement engine's full output.
	Log *PlacementLog

	// Supernodes holds each supernode's run, in fleet order. DeepEqual
	// over this slice (request logs included) is the tier's determinism
	// pin.
	Supernodes []SupernodeResult

	Requests int      // requests submitted fleet-wide
	Finished int      // requests completed fleet-wide
	Events   uint64   // activations dispatched fleet-wide
	EndTime  sim.Time // latest supernode end time

	// Request-latency SLO metrics over every request in the fleet
	// (arrival to completion, nearest-rank percentiles).
	P50, P99, P999 sim.Time

	// Admission SLO: the wait tenants spent parked before placement.
	AvgAdmissionWait sim.Time
	MaxAdmissionWait sim.Time

	// Fairness is the Jain index over per-tenant attained GPU service
	// normalized by demand (request count × weight), across the whole
	// fleet. Raw service spreads with the heavy-tailed lifetime mixture;
	// dividing by demand isolates what the schedulers control — how
	// evenly service per requested unit is delivered.
	Fairness float64
}

// Run executes a full cluster-tier run: generate the open-arrival tenant
// population, place it onto the supernodes with the shared-state engine,
// then execute the M supernode runs (in parallel, bit-identical at any
// worker count) and aggregate the cluster-scope metrics.
func Run(cfg Config) (*Result, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	cfg = cfg.withDefaults()

	// The population is drawn from a seed folded away from the per-run
	// seeds so arrival randomness and service randomness never alias.
	births, err := cfg.Arrivals.Births(rand.New(rand.NewSource(
		sweep.KeySeed(cfg.Seed, "cluster/arrivals"))))
	if err != nil {
		return nil, err
	}
	log := newEngine(cfg).place(births)
	log.checkInvariants(0)

	// Split the placement log into per-supernode stream lists, preserving
	// commit order (the stream index feeds workload.StreamSeed, so this
	// order is part of the deterministic contract).
	streams := make([][]workload.StreamSpec, len(cfg.Supernodes))
	placedPer := make([]int, len(cfg.Supernodes))
	for _, p := range log.Placements {
		b := births[p.Tenant-1]
		streams[p.Supernode] = append(streams[p.Supernode], workload.StreamSpec{
			Kind: b.Kind, Count: b.Requests, Lambda: b.Lambda,
			Node: p.Node, Tenant: int64(p.Tenant), Weight: b.Weight,
			Start: p.At,
		})
		placedPer[p.Supernode]++
	}

	// One core run per supernode, fanned out through the blessed pool.
	// Kernels recycle through a shared arena: workers fewer than
	// supernodes reuse their predecessor's backing arrays and coroutines.
	var arena parallel.KernelArena
	defer arena.Close()
	type snOut struct {
		res SupernodeResult
		err error
	}
	outs := parallel.Map(len(cfg.Supernodes), cfg.Workers, func(i int) snOut {
		if len(streams[i]) == 0 {
			return snOut{res: SupernodeResult{Run: core.NewRunResultForPooling()}}
		}
		// Every supernode is a Strings deployment balancing with GMin and
		// no device-level policy.
		ccfg := core.Config{
			Seed:    sweep.FoldSeed(cfg.Seed, uint64(i)),
			Nodes:   cfg.Supernodes[i].Nodes,
			Mode:    core.ModeStrings,
			Balance: "GMin",
			Kernel:  arena.Get(),
		}
		defer arena.Put(ccfg.Kernel)
		if cfg.Traced {
			ccfg.Recorder = trace.New()
		}
		c, err := core.New(ccfg)
		if err != nil {
			return snOut{err: fmt.Errorf("cluster: supernode %d: %w", i, err)}
		}
		defer c.Close()
		r, err := c.Run(streams[i])
		if err != nil {
			return snOut{err: fmt.Errorf("cluster: supernode %d: %w", i, err)}
		}
		if len(r.Errors) > 0 {
			return snOut{err: fmt.Errorf("cluster: supernode %d: app errors: %s", i, r.Errors[0])}
		}
		res := SupernodeResult{
			Placed:   placedPer[i],
			Requests: requestCount(streams[i]),
			Finished: r.Finished,
			Events:   c.Dispatched(),
			EndTime:  r.EndTime,
			Run:      r,
		}
		res.Utilization = utilization(r, cfg.Supernodes[i].devices())
		if cfg.Traced {
			for _, rec := range c.Recorders() {
				res.TraceJSONL = rec.Snapshot().AppendJSONL(res.TraceJSONL)
			}
		}
		return snOut{res: res}
	})
	for _, o := range outs {
		if o.err != nil {
			return nil, o.err
		}
	}

	res := &Result{Policy: cfg.Policy, Log: log}
	// Per-tenant demand (request count × weight) normalizes the fairness
	// vector: raw attained service just mirrors the heavy-tailed lifetime
	// draw, service-per-demand measures even delivery.
	demand := make(map[int64]float64, log.Placed)
	for _, p := range log.Placements {
		b := births[p.Tenant-1]
		w := b.Weight
		if w <= 0 {
			w = 1
		}
		demand[int64(p.Tenant)] = float64(b.Requests * w)
	}
	var latencies []float64
	svcPerDemand := make([]float64, 0, log.Placed)
	for _, o := range outs {
		res.Supernodes = append(res.Supernodes, o.res)
		res.Requests += o.res.Requests
		res.Finished += o.res.Finished
		res.Events += o.res.Events
		if o.res.EndTime > res.EndTime {
			res.EndTime = o.res.EndTime
		}
		for _, ev := range o.res.Run.Requests {
			if ev.Err == "" {
				latencies = append(latencies, float64(ev.CompletionTime()))
			}
		}
		// Per-tenant service/demand, in sorted tenant order so the
		// fairness vector is reproducible byte for byte.
		ids := make([]int64, 0, len(o.res.Run.TenantService))
		for id := range o.res.Run.TenantService {
			ids = append(ids, id)
		}
		sort.Slice(ids, func(a, b int) bool { return ids[a] < ids[b] })
		for _, id := range ids {
			if d := demand[id]; d > 0 {
				svcPerDemand = append(svcPerDemand, float64(o.res.Run.TenantService[id])/d)
			}
		}
	}
	res.P50 = sim.Time(metrics.Percentile(latencies, 0.50))
	res.P99 = sim.Time(metrics.Percentile(latencies, 0.99))
	res.P999 = sim.Time(metrics.Percentile(latencies, 0.999))
	res.Fairness = metrics.JainFairness(svcPerDemand)

	var waitSum int64
	waits := 0
	for _, p := range log.Placements {
		if p.Wait > res.MaxAdmissionWait {
			res.MaxAdmissionWait = p.Wait
		}
		if p.Wait > 0 {
			waitSum += int64(p.Wait)
			waits++
		}
	}
	if waits > 0 {
		res.AvgAdmissionWait = sim.Time(waitSum / int64(waits))
	}
	return res, nil
}

// requestCount sums the streams' request counts.
func requestCount(streams []workload.StreamSpec) int {
	n := 0
	for _, s := range streams {
		n += s.Count
	}
	return n
}

// utilization computes mean device utilization from attained tenant service.
func utilization(r *core.RunResult, devices int) float64 {
	if devices <= 0 || r.EndTime <= 0 {
		return 0
	}
	var svc int64
	ids := make([]int64, 0, len(r.TenantService))
	for id := range r.TenantService {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(a, b int) bool { return ids[a] < ids[b] })
	for _, id := range ids {
		svc += int64(r.TenantService[id])
	}
	return float64(svc) / (float64(devices) * float64(r.EndTime))
}
