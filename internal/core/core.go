// Package core assembles the complete Strings runtime over the simulated
// cluster: nodes with their GPUs, the gPool (the DST), the GPU Affinity
// Mapper service, per-GPU backend processes with the Context Packer and the
// device-level GPU Scheduler (Design III), and the two baselines the paper
// evaluates against — the bare CUDA runtime (static provisioning) and Rain
// (Design I: one backend process per application, no context packing).
package core

import (
	"fmt"

	"repro/internal/balancer"
	"repro/internal/cuda"
	"repro/internal/devsched"
	"repro/internal/faults"
	"repro/internal/gpu"
	"repro/internal/packer"
	"repro/internal/rpcproto"
	"repro/internal/sim"
	"repro/internal/sim/shard"
	"repro/internal/trace"
	"repro/internal/workload"
)

// Mode selects which runtime serves applications' GPU work.
type Mode int

// Runtime modes.
const (
	// ModeCUDA is static provisioning on the bare CUDA runtime:
	// applications keep their programmed device, one GPU context per
	// process, no remoting, no scheduling.
	ModeCUDA Mode = iota
	// ModeRain is the authors' prior scheduler (Design I): GPU remoting and
	// workload balancing with one backend process per application, so
	// co-located applications still multiplex GPU contexts.
	ModeRain
	// ModeStrings is the paper's system (Design III): one backend process
	// per GPU hosting one backend thread per application, context packing
	// over per-application CUDA streams, and device-level scheduling.
	ModeStrings
)

// String returns the mode name used in the figures.
func (m Mode) String() string {
	switch m {
	case ModeCUDA:
		return "CUDA"
	case ModeRain:
		return "Rain"
	case ModeStrings:
		return "Strings"
	default:
		return fmt.Sprintf("Mode(%d)", int(m))
	}
}

// NodeConfig describes one server node.
type NodeConfig struct {
	Devices []gpu.Spec
}

// Config describes a full experimental setup.
type Config struct {
	Seed  int64
	Nodes []NodeConfig
	Mode  Mode

	// Balance names the workload-balancing policy (GRR, GMin, GWtMin, RTF,
	// GUF, DTF, MBF). Ignored in ModeCUDA.
	Balance string

	// DevPolicy names the device-level scheduling policy: "none", "TFS",
	// "LAS" or "PS". Ignored in ModeCUDA; "PS" is Strings-only.
	DevPolicy string

	Sched devsched.Config

	// BlockOnOOM makes every simulated CUDA runtime's cudaMalloc wait for
	// device memory instead of failing with cudaErrorMemoryAllocation.
	BlockOnOOM bool

	// RemoteLink overrides the cross-node RPC link model (the zero value
	// selects rpcproto.RemoteLink). Same-node links are always
	// rpcproto.SharedMemLink.
	RemoteLink rpcproto.LinkSpec

	// Trace installs a utilization tracer on every device.
	Trace bool

	// Recorder, when non-nil, records virtual-time spans, events and
	// decision-audit records across the whole request path (see
	// internal/trace). Nil disables tracing with zero overhead.
	Recorder *trace.Recorder

	// Faults schedules deterministic backend failures (kill/stall/degrade a
	// node or GPU at a virtual time). The zero plan injects nothing and
	// adds zero events. Ignored in ModeCUDA (there is no remoting layer to
	// fail).
	Faults faults.Plan

	// CallTimeout bounds each interposer's wait for a blocking call's reply
	// and arms its failure handling: idempotent retransmits and failover to
	// a surviving GPU. 0 disables both, leaving the frontend bit-identical
	// to the pre-fault-tolerance behaviour.
	CallTimeout sim.Time

	// Traces, when non-nil, memoizes materialized arrival traces so cells
	// that replay the same workload stream share one immutable slice
	// instead of regenerating it per run; without a book each trace is
	// derived the same way, uncached, from a source its slab re-seeds.
	Traces *workload.TraceBook

	// Shards chooses how the one control-plane model executes, never what
	// it computes. The model is fixed: the affinity mapper runs on node 0,
	// node 0 reports to it instantly, and every other node pays
	// RemoteLink.Latency each way for selections, feedback/release, failure
	// and recovery reports. Shards is on/off: 0 = one kernel for all nodes,
	// >= 1 = one kernel per node, composed under a conservative-lookahead
	// coordinator (internal/sim/shard) with the RemoteLink latency as the
	// lookahead. Request logs agree between the two (only application IDs
	// are numbered per kernel), and every value >= 1 is the same run.
	// Topologies the per-node partition cannot express yet — a single node,
	// partitionable (MIG) fleets whose slices are carved across nodes, or
	// fault plans that mutate cross-node state — run on one kernel whatever
	// Shards says; Sharded() reports the outcome.
	Shards int
}

// Cluster is a fully wired simulated deployment.
type Cluster struct {
	K     *sim.Kernel
	cfg   Config
	arena *arena // where Close gives the kernels back

	mapper *balancer.Mapper
	mapD   sim.Daemon

	// The mapper's state between steps (mapperStep): mapPend holds every
	// message of the earliest unserved arrival instant, then at most one
	// later message; mapServing is set while the mapper spends the service
	// time on the message at the front.
	mapServing bool

	// The node→kernel partition (see partition.go): one environment per
	// kernel (tables.envs), every kernel driven by coord. tables.nodes maps a
	// node, and devEnv a GID, to its environment.
	coord *shard.Coordinator

	tables

	// Slice-placement tenant state (see slices.go); inert unless the fleet has
	// partitionable devices and a run declares slice streams.
	sl sliceState
}

// tables are the cluster's environments, node fabrics, per-GPU tables and
// the mapper's queues, which a cluster takes from the slab of its first
// kernel and Close gives back.
type tables struct {
	envs  []*slab
	nodes []nodeFabric

	devices []*gpu.Device // indexed by GID
	devEnv  []*slab
	traces  []*gpu.UtilTrace
	nodeDev [][]*gpu.Device // per node, each a view of devices
	scheds  []*devsched.Scheduler

	// The Strings (Design III) backend: one process per GPU, hosting a
	// backend thread per connected application. All threads share the
	// process's CUDA runtime (hence a single GPU context) through the Context
	// Packer, and every thread is gated by the device scheduler's Dispatcher;
	// threads counts those each process has started.
	packers []*packer.Packer
	threads []int

	// Injected fault state, written only by the fault injector (all zero in
	// fault-free runs).
	gpuDown    []bool
	stallUntil []sim.Time
	degrade    []float64

	mapQ    sim.Queue[any] // *mapperMsg, from the pool mapFree
	mapPend []*mapperMsg
	mapFree []*mapperMsg
	accepts []*accepting // idle, for ConnectBackend
}

// reuse returns the tables emptied, keeping their arrays.
func (t *tables) reuse() tables {
	t.mapQ.Reset()
	return tables{
		envs: empty(t.envs), nodes: empty(t.nodes),
		devices: empty(t.devices), devEnv: empty(t.devEnv), traces: empty(t.traces),
		nodeDev: empty(t.nodeDev), scheds: empty(t.scheds), packers: empty(t.packers),
		threads: t.threads[:0], gpuDown: t.gpuDown[:0], stallUntil: t.stallUntil[:0], degrade: t.degrade[:0],
		mapQ: t.mapQ, mapPend: empty(t.mapPend), mapFree: t.mapFree, accepts: t.accepts,
	}
}

func empty[T any](s []T) []T {
	clear(s)
	return s[:0]
}

// mapperMsg is a message to the affinity-mapper service: a
// selection request, a feedback/release relay, or failure-detector traffic.
type mapperMsg struct {
	req balancer.Request
	out *balancer.GID // where a selection's verdict lands

	fb      rpcproto.Feedback
	hasFB   bool
	release bool
	relGID  balancer.GID
	relKind string

	// Failure-detector traffic.
	fail      bool
	recovered bool
	hGID      balancer.GID
	hOut      *balancer.Health

	// node is the sender's node and at the instant the message reaches the
	// mapper's queue. Selections and failure reports are answered: the
	// verdict calls done on the sender's node (see Cluster.reply).
	node int
	at   sim.Time
	done func()
}

// New builds a cluster per cfg on kernels the process's one arena lends, warm
// from the clusters closed before: kernels, devices, gPool, mapper service and
// (for ModeStrings) per-GPU backends are re-initialised or created at once.
// The configuration is validated before anything Close gives back is taken.
func New(cfg Config) (*Cluster, error) { return newCluster(cfg, &shared) }

// newCluster is New on slabs of a.
func newCluster(cfg Config, a *arena) (*Cluster, error) {
	if len(cfg.Nodes) == 0 {
		return nil, fmt.Errorf("core: no nodes configured")
	}
	if cfg.Balance == "" {
		cfg.Balance = "GRR"
	}
	if cfg.DevPolicy == "" {
		cfg.DevPolicy = "none"
	}
	if cfg.RemoteLink == (rpcproto.LinkSpec{}) {
		cfg.RemoteLink = rpcproto.RemoteLink
	}
	for n, node := range cfg.Nodes {
		if len(node.Devices) == 0 {
			return nil, fmt.Errorf("core: node %d has no devices", n)
		}
		for i, spec := range node.Devices {
			if err := spec.CheckSlices(); err != nil {
				return nil, fmt.Errorf("core: node %d device %d: %w", n, i, err)
			}
		}
	}
	c := &Cluster{cfg: cfg, arena: a}
	var pol balancer.Policy
	if cfg.Mode != ModeCUDA {
		var err error
		if pol, err = balancer.ByName(cfg.Balance); err != nil {
			return nil, err
		}
		if err = devsched.CheckName(cfg.DevPolicy); err != nil {
			return nil, err
		}
		if cfg.DevPolicy == "PS" && cfg.Mode != ModeStrings {
			return nil, fmt.Errorf("core: PS is a Strings-only policy")
		}
	}
	c.buildEnvs()

	// Physical devices, each on its node's kernel.
	for n, node := range cfg.Nodes {
		lo := len(c.devices)
		for _, spec := range node.Devices {
			c.addDevice(c.nodes[n].e, spec)
		}
		hi := len(c.devices)
		c.nodeDev = append(c.nodeDev, c.devices[lo:hi:hi])
	}

	if cfg.Mode == ModeCUDA {
		return c, nil
	}

	// The Affinity Mapper, the first slab's re-initialised, and the gPool
	// Creator: one DST row per device, GIDs in node order. The rows' (GID,
	// Node, LocalDev) columns are the paper's gMap.
	c.mapper = c.envs[0].mapper.Init(pol)
	c.mapper.SetRecorder(cfg.Recorder)
	dst := c.mapper.DST()
	for n, devs := range c.nodeDev {
		for i, d := range devs {
			row := dstRow(dst.NewRow(), balancer.GID(dst.Len()), n, i, d.Spec())
			if row.Partitionable {
				c.sl.numPart++
			}
			dst.AddRow(row)
		}
	}
	c.K.StartDaemon(&c.mapD, func() string { return "affinity-mapper" }, c.envs[0].mapStep)

	for g := range c.devices {
		c.serveDevice(g)
	}
	faults.Start(c.K, cfg.Faults, c)
	return c, nil
}

// dstRow fills row, a zeroed one, as the gPool Creator's row for one device:
// its location, its capability weights and, when it is partitionable, its
// whole capacity and slice shapes. spec is the device's normalized spec.
func dstRow(row *balancer.DSTEntry, gid balancer.GID, node, local int, spec gpu.Spec) *balancer.DSTEntry {
	row.GID, row.Node, row.LocalDev, row.Name = gid, node, local, spec.Name
	row.Weight, row.ComputeRate, row.MemBandwidth = spec.Weight, spec.ComputeRate, spec.MemBandwidth
	if spec.Partitionable() {
		row.Partitionable = true
		row.TotalFrac, row.FreeFrac = gpu.SliceFractions, gpu.SliceFractions
		row.TotalMem, row.FreeMem = spec.MemBytes, spec.MemBytes
		for _, p := range spec.SliceProfiles {
			row.Shapes = append(row.Shapes, balancer.SliceShape{Name: p.Name, Frac: p.Frac, Mem: p.MemBytes})
		}
	}
	return row
}

// addDevice creates the device for the next gPool row on e's kernel, with
// the utilization tracer, the GPU-op span hook and a clean fault state.
func (c *Cluster) addDevice(e *slab, spec gpu.Spec) {
	gid := len(c.devices)
	d := take(&e.devices).Init(e.k, spec, gid)
	d.SetSpares(&e.spares)
	var tr *gpu.UtilTrace
	if c.cfg.Trace {
		tr = &gpu.UtilTrace{}
		d.SetTracer(tr)
	}
	c.traces = append(c.traces, tr)
	if rec := e.rec; rec.Enabled() {
		// GPU-op spans: the completion callback sees the op's full
		// timing, so each op records as an already-finished span.
		d.SetOnComplete(func(op *gpu.Op) {
			if op.Kind == gpu.OpMarker {
				return
			}
			rec.Complete(trace.KOp, op.Kind.String(),
				op.AppID, gid, op.Bytes, op.Started, op.Finished)
		})
	}
	c.devices = append(c.devices, d)
	c.devEnv = append(c.devEnv, e)
	c.gpuDown = append(c.gpuDown, false)
	c.stallUntil = append(c.stallUntil, 0)
	c.degrade = append(c.degrade, 0)
}

// serveDevice starts gid's device scheduler and, for Strings, its per-GPU
// backend process, on the device's kernel. Rain's
// per-process backends can only observe attained service at request
// boundaries, so its Request Monitor runs with coarse accounting.
func (c *Cluster) serveDevice(gid int) {
	e := c.devEnv[gid]
	schedCfg := c.cfg.Sched
	if c.cfg.Mode == ModeRain && schedCfg.AccountingLag == 0 {
		schedCfg.AccountingLag = 100 * sim.Millisecond
	}
	s := take(&e.scheds).Init(e.k, c.devices[gid], gid, c.cfg.DevPolicy, schedCfg)
	s.SetRecorder(e.rec)
	c.scheds = append(c.scheds, s)
	if c.cfg.Mode == ModeStrings {
		// The packer runs with the zero packer.Config, so pinned staging
		// costs nothing (EXPERIMENTS.md, known divergence 5).
		pk := take(&e.packers).Init(e.k, c.devices[gid:gid+1:gid+1], c.cudaConfig(), packer.Config{})
		pk.SetRecorder(e.rec, gid)
		c.packers = append(c.packers, pk)
		c.threads = append(c.threads, 0)
	}
}

// cudaConfig configures every CUDA runtime the cluster builds. Only
// BlockOnOOM is set: the runtime's host-side overheads are never charged
// (EXPERIMENTS.md, known divergence 6).
func (c *Cluster) cudaConfig() cuda.Config { return cuda.Config{BlockOnOOM: c.cfg.BlockOnOOM} }

// Mapper returns the affinity mapper (nil in ModeCUDA, and after Close: the
// mapper is the arena's then).
func (c *Cluster) Mapper() *balancer.Mapper { return c.mapper }

// Devices returns the devices in GID order (none after Close).
func (c *Cluster) Devices() []*gpu.Device { return c.devices }

// Trace returns the utilization trace of device gid (nil unless
// Config.Trace).
func (c *Cluster) Trace(gid int) *gpu.UtilTrace { return c.traces[gid] }

// mapperServiceTime is what the Affinity Mapper spends on one message.
const mapperServiceTime = 3 * sim.Microsecond

// mapperStep is the GPU Affinity Mapper service of the cluster on e, its first
// kernel's slab: it takes a message, spends the service time on it, and
// answers it.
func (e *slab) mapperStep(d *sim.Daemon) {
	c := e.c
	if c.mapServing {
		c.mapServing = false
		c.serveMapper(d.Now())
	}
	if len(c.mapPend) == 0 {
		m, ok := c.mapQ.Take(d)
		if !ok {
			return
		}
		c.mapPend = append(c.mapPend, m.(*mapperMsg))
	}
	c.mapServing = true
	d.Sleep(mapperServiceTime)
}

// serveMapper answers one pending message. First come, first served;
// arrivals of one instant are served in node order, not in the order the
// kernel happened to run their senders — that order shifts with the
// node→kernel partition.
func (c *Cluster) serveMapper(now sim.Time) {
	pend := c.mapPend
	best := 0
	for i := 1; ; i++ {
		if i == len(pend) {
			m, ok := c.mapQ.TryGet()
			if !ok {
				break
			}
			pend = append(pend, m.(*mapperMsg))
		}
		if pend[i].at != pend[0].at {
			break
		}
		if pend[i].node < pend[best].node {
			best = i
		}
	}
	m := *pend[best]
	c.mapFree = append(c.mapFree, pend[best]) // bounded by peak undelivered messages
	c.mapPend = append(pend[:best], pend[best+1:]...)
	switch {
	case m.fail:
		*m.hOut = c.mapper.ReportFailure(m.hGID)
		c.reply(m)
	case m.recovered:
		c.mapper.ReportRecovered(m.hGID)
	case m.done != nil:
		if m.req.WantsSlice() {
			c.handleSliceSelect(now, m)
			return
		}
		*m.out = c.mapper.SelectAt(now, m.req)
		c.reply(m)
	case m.release:
		if m.hasFB {
			c.mapper.Feedback(&m.fb)
		}
		c.mapper.Release(m.relGID, m.relKind)
		c.noteSliceRelease(now, m.relGID)
	}
}
