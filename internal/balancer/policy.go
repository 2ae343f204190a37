package balancer

import "fmt"

// Request is one target-GPU selection request, produced when the interposer
// forwards an application's cudaSetDevice to the affinity mapper.
type Request struct {
	AppID  int
	Kind   string // application class (workload short code)
	Node   int    // node the application's CPU component runs on
	Tenant int64

	// Slice demand. When SliceFrac > 0 the tenant asks for a dedicated
	// MIG-style slice (SliceProfile names the shape, SliceFrac/SliceMem
	// carry its compute-sevenths and memory demand) and only partitionable
	// physical rows with enough free capacity are eligible targets. Zero —
	// the default — is a classic whole-device request.
	SliceProfile string
	SliceFrac    int
	SliceMem     int64
}

// WantsSlice reports whether the request asks for a carved slice.
func (r Request) WantsSlice() bool { return r.SliceFrac > 0 }

// eligible reports whether a DST row can serve the request at all. Classic
// requests bind to any non-slice row (exactly the pre-partitioning pool —
// carved-slice rows are private to their tenant). Slice requests bind only
// to healthy partitionable physical rows whose free capacity fits the
// profile in both dimensions.
func eligible(e *DSTEntry, req Request) bool {
	if !req.WantsSlice() {
		return !e.IsSlice
	}
	return e.Partitionable && !e.IsSlice && e.Health == Healthy &&
		e.FreeFrac >= req.SliceFrac && e.FreeMem >= req.SliceMem
}

// Policy is a Target GPU Selector policy. Select must be deterministic
// given the tables' state.
type Policy interface {
	Name() string
	Select(req Request, dst *DST, sft *SFT) GID
}

// GRR assigns incoming applications to gPool devices round-robin.
type GRR struct{ next int }

// NewGRR returns a fresh round-robin policy.
func NewGRR() *GRR { return &GRR{} }

// Name implements Policy.
func (g *GRR) Name() string { return "GRR" }

// Select implements Policy. Non-Healthy and ineligible devices are skipped:
// the cursor advances past them, so round-robin continues over the
// surviving pool. When no Healthy eligible device is left the plain rotation
// answer is returned.
func (g *GRR) Select(req Request, dst *DST, sft *SFT) GID {
	n := dst.Len()
	rows := dst.Entries()
	for i := 0; i < n; i++ {
		e := rows[g.next%n]
		g.next++
		if e.Health == Healthy && eligible(e, req) {
			return e.GID
		}
	}
	e := rows[g.next%n]
	g.next++
	return e.GID
}

// GMin chooses the device with the minimum number of bound applications,
// breaking ties in favour of GPUs local to the requesting node (remote GPUs
// are more expensive to reach).
type GMin struct{}

// Name implements Policy.
func (GMin) Name() string { return "GMin" }

// Select implements Policy.
func (GMin) Select(req Request, dst *DST, sft *SFT) GID {
	return argmin(dst, req, func(e *DSTEntry) float64 { return float64(e.Load) })
}

// GWtMin extends GMin with the gPool Creator's static device weights,
// selecting the minimum weighted load — more capable devices absorb more
// applications.
type GWtMin struct{}

// Name implements Policy.
func (GWtMin) Name() string { return "GWtMin" }

// Select implements Policy.
func (GWtMin) Select(req Request, dst *DST, sft *SFT) GID {
	return argmin(dst, req, func(e *DSTEntry) float64 {
		return float64(e.Load) / e.Weight
	})
}

// argmin picks the eligible entry minimizing score; ties prefer devices on
// the request's node, then lower GIDs. Non-Healthy entries are skipped; if
// the whole pool is down the scan falls back to every eligible row so
// callers always get an answer. Slice requests never fall back past
// eligibility — a row that cannot fit the profile is not an answer at any
// health.
func argmin(dst *DST, req Request, score func(*DSTEntry) float64) GID {
	if gid, ok := argminWhere(dst, req, score, true); ok {
		return gid
	}
	gid, _ := argminWhere(dst, req, score, false)
	return gid
}

// argminWhere is argmin's scan; healthyOnly restricts it to Healthy rows.
func argminWhere(dst *DST, req Request, score func(*DSTEntry) float64, healthyOnly bool) (GID, bool) {
	var best *DSTEntry
	var bestScore float64
	bestLocal := false
	for _, e := range dst.Entries() {
		if healthyOnly && e.Health != Healthy {
			continue
		}
		if !eligible(e, req) {
			continue
		}
		s := score(e)
		local := e.Node == req.Node
		switch {
		case best == nil, s < bestScore, s == bestScore && local && !bestLocal:
			best, bestScore, bestLocal = e, s, local
		}
	}
	if best == nil {
		return 0, false
	}
	return best.GID, true
}

// devLoad summarizes the expected outstanding work bound to one device,
// split by the engine it occupies, in microseconds of service demand. It is
// the feedback policies' shared queueing model.
type devLoad struct {
	kern float64 // kernel-engine demand, normalized by device weight
	xfer float64 // copy-engine demand
	bw   float64 // memory-bandwidth pressure (fraction of device bandwidth)
	util float64 // summed GPU utilization of bound apps
	exec float64 // total expected runtime, normalized by weight
}

// defaultExec is the assumed runtime of a class with no history.
const defaultExec = 10e6 // 10 s

// loadOf folds the SFT history of every application bound to e, in the
// row's kind order, so the float sums are the same on every run.
func loadOf(e *DSTEntry, sft *SFT) devLoad {
	var l devLoad
	for _, kc := range e.BoundKinds {
		n := float64(kc.N)
		h, ok := sft.Lookup(kc.Kind)
		if !ok {
			l.exec += n * defaultExec / e.Weight
			l.kern += n * defaultExec / 2 / e.Weight
			l.xfer += n * defaultExec / 10
			l.util += float64(n * 0.5)
			continue
		}
		kernT := float64(h.GPUTime - h.XferTime)
		if kernT < 0 {
			kernT = 0
		}
		l.exec += n * float64(h.ExecTime) / e.Weight
		l.kern += n * kernT / e.Weight
		l.xfer += float64(n * float64(h.XferTime))
		l.bw += n * h.MemBW / e.MemBandwidth
		l.util += float64(n * h.GPUUtil)
	}
	return l
}

// kindDemands extracts the requesting class's engine demands.
func kindDemands(h *SFTEntry) (kernT, xferT, bwFrac float64) {
	kernT = float64(h.GPUTime - h.XferTime)
	if kernT < 0 {
		kernT = 0
	}
	return kernT, float64(h.XferTime), h.MemBW
}

// remoteXferFactor is the measured slowdown of host↔device transfers when
// the device sits across the supernode interconnect instead of the local
// PCIe bus. The feedback policies charge it against remote candidates —
// the reactive counterpart of GMin's static local-first tie-break.
const remoteXferFactor = 2.0

// remoteCost returns the extra transfer delay the class would suffer on a
// remote device.
func remoteCost(h *SFTEntry, e *DSTEntry, req Request) float64 {
	if e.Node == req.Node {
		return 0
	}
	return remoteXferFactor * float64(h.XferTime)
}

// The feedback policies score devices with the requesting class's SFT
// history. They are reachable only through ByName's Arbiter, which runs
// them once the class has history, so none of them handles its absence.

// rtf is Runtime Feedback: a reactive policy balancing on the measured
// runtimes of bound applications instead of static weights — the expected
// completion backlog in real time replaces GWtMin's population count.
type rtf struct{}

// Name implements Policy.
func (rtf) Name() string { return "RTF" }

// Select implements Policy.
func (rtf) Select(req Request, dst *DST, sft *SFT) GID {
	mine, _ := sft.Lookup(req.Kind)
	return argmin(dst, req, func(e *DSTEntry) float64 {
		return loadOf(e, sft).exec + remoteCost(&mine, e, req)
	})
}

// guf is GPU Utilization Feedback: balance on measured backlog while
// avoiding the collocation of applications with high GPU utilization on the
// same device (the NUMA-contention analogue): a high-utilization arrival
// pays for every busy co-tenant, a near-idle one squeezes in anywhere.
type guf struct{}

// Name implements Policy.
func (guf) Name() string { return "GUF" }

// Select implements Policy.
func (guf) Select(req Request, dst *DST, sft *SFT) GID {
	mine, _ := sft.Lookup(req.Kind)
	myExec := float64(mine.ExecTime)
	return argmin(dst, req, func(e *DSTEntry) float64 {
		l := loadOf(e, sft)
		// Expected delay: measured backlog plus the interference of
		// sharing the device with busy tenants, scaled by how much this
		// class itself needs the GPU.
		return l.exec + float64(l.util*mine.GPUUtil*myExec) + remoteCost(&mine, e, req)
	})
}

// dtf is Data Transfer Feedback: engine-aware balancing. A device's
// kernel-engine and copy-engine backlogs are tracked separately, and an
// arrival pays only for the engines it actually needs — so transfer-bound
// applications land next to compute-bound ones and the device's memcpy and
// compute engines run concurrently.
type dtf struct{}

// Name implements Policy.
func (dtf) Name() string { return "DTF" }

// Select implements Policy.
func (dtf) Select(req Request, dst *DST, sft *SFT) GID {
	mine, _ := sft.Lookup(req.Kind)
	kernT, xferT, _ := kindDemands(&mine)
	tot := kernT + xferT
	if tot <= 0 {
		return rtf{}.Select(req, dst, sft)
	}
	fk, fx := kernT/tot, xferT/tot
	cpu := float64(mine.ExecTime) - float64(mine.GPUTime)
	if cpu < 0 {
		cpu = 0
	}
	return argmin(dst, req, func(e *DSTEntry) float64 {
		l := loadOf(e, sft)
		// Per-engine queueing delay weighted by this class's use of each
		// engine; the CPU component is contention-free.
		return float64(fk*l.kern) + float64(fx*l.xfer) + float64(0.1*cpu) + remoteCost(&mine, e, req)
	})
}

// mbf is Memory Bandwidth Feedback: DTF's engine-aware balancing extended
// with the approximate memory bandwidth of each class (total kernel data
// accesses over time on the GPU). Bandwidth-bound arrivals avoid devices
// already under bandwidth pressure, so compute-bound co-tenants hide the
// memory latencies of bandwidth-bound kernels. Because the bandwidth
// estimate folds in both runtime and transfer behaviour, MBF inherits RTF's
// and DTF's signals.
type mbf struct{}

// Name implements Policy.
func (mbf) Name() string { return "MBF" }

// Select implements Policy.
func (mbf) Select(req Request, dst *DST, sft *SFT) GID {
	mine, _ := sft.Lookup(req.Kind)
	kernT, xferT, myBW := kindDemands(&mine)
	tot := kernT + xferT
	if tot <= 0 {
		return rtf{}.Select(req, dst, sft)
	}
	fk, fx := kernT/tot, xferT/tot
	return argmin(dst, req, func(e *DSTEntry) float64 {
		l := loadOf(e, sft)
		myFrac := myBW / e.MemBandwidth
		// Engine-aware delay plus the bandwidth-contention slowdown the
		// arrival's kernels would suffer (and cause) on this device.
		return float64(fk*l.kern) + float64(fx*l.xfer) + float64(l.bw*myFrac*kernT) + remoteCost(&mine, e, req)
	})
}

// Frag is the fragmentation-aware slice-placement policy, after the
// fragmentation-gradient scheduler of arXiv 2511.18906: place each slice
// request on the partitionable device whose fragmentation increases least.
//
// A device's fragmentation F is measured against the full profile table:
// free capacity that cannot serve a profile is stranded for it. With cap =
// mean(freeFrac/totalFrac, freeMem/totalMem),
//
//	F = (1/|P|) · Σ_{p ∈ P, p does not fit free} cap
//
// and the policy picks the eligible device minimizing ΔF = F(after) −
// F(before), tie-breaking toward the tighter-packed device (smaller
// remaining cap) so big holes stay whole for big profiles. Load-only
// policies (GMin/GRR) spread slices evenly and strand sevenths everywhere;
// Frag concentrates them, which is exactly the packing-efficiency gap the
// `-exp frag` experiment measures. Classic whole-device requests fall back
// to GMin.
type Frag struct{}

// Name implements Policy.
func (Frag) Name() string { return "Frag" }

// Select implements Policy.
func (Frag) Select(req Request, dst *DST, sft *SFT) GID {
	if !req.WantsSlice() {
		return GMin{}.Select(req, dst, sft)
	}
	return argmin(dst, req, func(e *DSTEntry) float64 {
		before := fragOf(e, e.FreeFrac, e.FreeMem)
		after := fragOf(e, e.FreeFrac-req.SliceFrac, e.FreeMem-req.SliceMem)
		// The epsilon term prefers the tighter-packed survivor among
		// equal-gradient candidates; it is far below any ΔF step (1/|P|
		// per newly stranded profile), so it only breaks exact ties.
		return (after - before) + float64(1e-9*capScalar(e, e.FreeFrac-req.SliceFrac, e.FreeMem-req.SliceMem))
	})
}

// capScalar collapses a partitionable row's two free-capacity dimensions to
// one scalar in [0,1]: the mean of the free compute and memory fractions.
func capScalar(e *DSTEntry, frac int, mem int64) float64 {
	if e.TotalFrac <= 0 || e.TotalMem <= 0 {
		return 0
	}
	return (float64(frac)/float64(e.TotalFrac) + float64(mem)/float64(e.TotalMem)) / 2
}

// fragOf is the row's fragmentation measure at a hypothetical free
// capacity: the share of profiles the free hole cannot serve, weighted by
// the hole's size. An empty hole strands nothing; a large hole that fits
// no profile is maximally stranded.
func fragOf(e *DSTEntry, frac int, mem int64) float64 {
	if len(e.Shapes) == 0 {
		return 0
	}
	c := capScalar(e, frac, mem)
	f := 0.0
	for _, s := range e.Shapes {
		if s.Frac > frac || s.Mem > mem {
			f += c
		}
	}
	return f / float64(len(e.Shapes))
}

// FragScore returns the row's current fragmentation measure (see Frag): the
// share of slice profiles its free hole cannot serve, weighted by the
// hole's size. Zero for non-partitionable rows. Exposed so the runtime can
// integrate the fleet's stranded-capacity ratio over time with exactly the
// measure the policy optimizes.
func FragScore(e *DSTEntry) float64 { return fragOf(e, e.FreeFrac, e.FreeMem) }

// Arbiter is the Policy Arbiter: it runs the static policy until the SFT
// holds a report for the requesting class, then switches to the feedback
// policy (the paper's dynamic policy switching). It is the only place a
// class without history is handled.
type Arbiter struct {
	Static   Policy
	Feedback Policy
}

// Name implements Policy.
func (a *Arbiter) Name() string {
	return fmt.Sprintf("PA(%s→%s)", a.Static.Name(), a.Feedback.Name())
}

// Select implements Policy.
func (a *Arbiter) Select(req Request, dst *DST, sft *SFT) GID {
	if sft.Samples(req.Kind) > 0 {
		return a.Feedback.Select(req, dst, sft)
	}
	return a.Static.Select(req, dst, sft)
}

// ByName constructs a policy from its figure-label name. Feedback policies
// are wrapped in an Arbiter over GWtMin, as in the paper's evaluation.
func ByName(name string) (Policy, error) {
	switch name {
	case "GRR":
		return NewGRR(), nil
	case "GMin":
		return GMin{}, nil
	case "GWtMin":
		return GWtMin{}, nil
	case "RTF":
		return &Arbiter{GWtMin{}, rtf{}}, nil
	case "GUF":
		return &Arbiter{GWtMin{}, guf{}}, nil
	case "DTF":
		return &Arbiter{GWtMin{}, dtf{}}, nil
	case "MBF":
		return &Arbiter{GWtMin{}, mbf{}}, nil
	case "Frag":
		return Frag{}, nil
	default:
		return nil, fmt.Errorf("balancer: unknown policy %q", name)
	}
}

// Names lists the selectable policy names in figure order.
func Names() []string {
	return []string{"GRR", "GMin", "GWtMin", "RTF", "GUF", "DTF", "MBF"}
}
