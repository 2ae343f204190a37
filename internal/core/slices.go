package core

import (
	"fmt"

	"repro/internal/balancer"
	"repro/internal/gpu"
	"repro/internal/sim"
	"repro/internal/workload"
)

// MIG-style slice placement. Streams that set SliceProfile bind their
// tenant to a dedicated slice carved from a partitionable device: the first
// request of the tenant places and carves the slice (a fresh gpu.Device
// with its own scheduler and backend — isolation and private context
// multiplexing by construction), subsequent requests route to it, and the
// slice is destroyed when the tenant's last request releases. Requests that
// fit nowhere park in FIFO order and are retried on every release; the
// admission wait is part of the request's completion latency, which is how
// packing quality surfaces as an SLO.
//
// Every mutation of the placement state happens inside the mapperLoop
// service process, so slice runs are exactly as deterministic as
// whole-device ones. Fleets without slice streams never touch any of this.

// sliceState is the placement ledger the mapper service owns. Nil until a
// run declares slice streams.
type sliceState struct {
	parts []*gpu.Partition // per physical GID; nil rows are not partitionable

	tenantProfile map[int64]gpu.SliceProfile
	tenantGID     map[int64]balancer.GID // tenant → live slice row
	tenantExpect  map[int64]int          // total requests the tenant will send
	tenantServed  map[int64]int          // requests released so far
	tenantAsk     map[int64]sim.Time     // first placement attempt (admission wait)

	sliceTenant map[balancer.GID]int64 // live slice row → tenant
	slicePart   map[balancer.GID]int   // live slice row → partition-local id

	parked []mapperMsg // FIFO of selection requests awaiting capacity

	// Time-weighted stranded-capacity integral (see strandedTick).
	strandedAt  sim.Time
	strandedInt float64
	numPart     int
}

// initSlices builds the per-device partition ledgers. Called once from New;
// cheap no-op for fleets with no partitionable specs.
func (c *Cluster) initSlices() {
	for gid, d := range c.devices {
		spec := d.Spec()
		if !spec.Partitionable() {
			c.sl.parts = append(c.sl.parts, nil)
			continue
		}
		pt, err := gpu.NewPartition(spec)
		if err != nil {
			// Specs were validated by NewDevice already; a bad profile
			// table is a configuration bug.
			panic(fmt.Sprintf("core: gid %d: %v", gid, err))
		}
		c.sl.parts = append(c.sl.parts, pt)
		c.sl.numPart++
	}
}

// prepareSlices validates slice streams and builds the tenant ledgers.
func (c *Cluster) prepareSlices(streams []workload.StreamSpec) error {
	for si, s := range streams {
		if s.SliceProfile == "" {
			continue
		}
		if c.cfg.Mode != ModeStrings {
			return fmt.Errorf("core: stream %d: slice profiles need ModeStrings", si)
		}
		prof, ok := c.findProfile(s.SliceProfile)
		if !ok {
			return fmt.Errorf("core: stream %d: no partitionable device offers profile %q",
				si, s.SliceProfile)
		}
		if c.sl.tenantProfile == nil {
			c.sl.tenantProfile = make(map[int64]gpu.SliceProfile)
			c.sl.tenantGID = make(map[int64]balancer.GID)
			c.sl.tenantExpect = make(map[int64]int)
			c.sl.tenantServed = make(map[int64]int)
			c.sl.tenantAsk = make(map[int64]sim.Time)
			c.sl.sliceTenant = make(map[balancer.GID]int64)
			c.sl.slicePart = make(map[balancer.GID]int)
		}
		if prev, ok := c.sl.tenantProfile[s.Tenant]; ok && prev.Name != s.SliceProfile {
			return fmt.Errorf("core: tenant %d asks for profiles %q and %q",
				s.Tenant, prev.Name, s.SliceProfile)
		}
		c.sl.tenantProfile[s.Tenant] = prof
		c.sl.tenantExpect[s.Tenant] += s.Count
	}
	return nil
}

// findProfile resolves a profile name against the fleet's partitionable
// devices (first match in GID order).
func (c *Cluster) findProfile(name string) (gpu.SliceProfile, bool) {
	for _, pt := range c.sl.parts {
		if pt == nil {
			continue
		}
		if p, ok := pt.Spec().ProfileByName(name); ok {
			return p, true
		}
	}
	return gpu.SliceProfile{}, false
}

// sliceDemand enriches a selection request with the tenant's slice demand.
// Identity for tenants without a profile.
func (c *Cluster) sliceDemand(req balancer.Request) balancer.Request {
	if prof, ok := c.sl.tenantProfile[req.Tenant]; ok {
		req.SliceProfile = prof.Name
		req.SliceFrac = prof.Frac
		req.SliceMem = prof.MemBytes
	}
	return req
}

// handleSliceSelect serves one slice-demanding selection request inside the
// mapper service: route to the tenant's live slice, or place-and-carve, or
// park until a release frees capacity.
func (c *Cluster) handleSliceSelect(p *sim.Proc, m mapperMsg) {
	if gid, ok := c.sl.tenantGID[m.req.Tenant]; ok {
		c.mapper.DST().Bind(gid, m.req.Kind)
		m.out.gid = gid
		c.reply(m)
		return
	}
	if _, asked := c.sl.tenantAsk[m.req.Tenant]; !asked {
		c.sl.tenantAsk[m.req.Tenant] = p.Now()
	}
	if gid, ok := c.placeSlice(p, m.req); ok {
		m.out.gid = gid
		c.reply(m)
		return
	}
	c.result().SliceParks++
	c.sl.parked = append(c.sl.parked, m)
}

// placeSlice asks the policy for a parent device and carves the tenant's
// slice from it. ok=false when nothing fits.
func (c *Cluster) placeSlice(p *sim.Proc, req balancer.Request) (balancer.GID, bool) {
	parent, ok := c.mapper.SelectSliceAt(p.Now(), req)
	if !ok {
		return 0, false
	}
	gid := c.carveSlice(p, parent, req)
	c.sl.tenantGID[req.Tenant] = gid
	c.sl.sliceTenant[gid] = req.Tenant
	c.mapper.DST().Bind(gid, req.Kind)
	r := c.result()
	r.SliceCarves++
	r.AdmissionWaits = append(r.AdmissionWaits, p.Now()-c.sl.tenantAsk[req.Tenant])
	return gid, true
}

// carveSlice materializes one slice: partition ledger, gMap row, a fresh
// device with scheduler and backend, and the DST's capacity accounting.
func (c *Cluster) carveSlice(p *sim.Proc, parent balancer.GID, req balancer.Request) balancer.GID {
	c.strandedTick(p.Now())
	pt := c.sl.parts[parent]
	sid, spec, err := pt.Carve(req.SliceProfile)
	if err != nil {
		// The DST said it fits; the partition disagreeing means the two
		// ledgers diverged — a bug, not a runtime condition.
		panic(fmt.Sprintf("core: carve reconciliation failure on gid %d: %v", parent, err))
	}
	gid, err := c.gmap.AddSlice(parent, sid, req.SliceProfile, spec)
	if err != nil {
		panic(fmt.Sprintf("core: %v", err))
	}
	// The slice lives on its parent device's kernel.
	c.addDevice(c.devEnv[parent], spec)
	c.serveDevice(int(gid))

	pe, _ := c.gmap.Lookup(parent)
	c.mapper.DST().AddRow(&balancer.DSTEntry{
		GID: gid, Node: pe.Node, LocalDev: pe.LocalDev, Name: spec.Name,
		Weight: spec.Weight, ComputeRate: spec.ComputeRate,
		MemBandwidth: spec.MemBandwidth,
		IsSlice:      true, Parent: parent, Profile: req.SliceProfile,
	})
	c.mapper.DST().CarveCapacity(parent, req.SliceFrac, req.SliceMem)
	c.sl.slicePart[gid] = sid
	return gid
}

// noteSliceRelease is called from the mapper service on every binding
// release. When the released binding was the tenant's last request, the
// tenant departs: its slice is destroyed, the capacity returns to the
// parent, and parked requests are retried in arrival order.
func (c *Cluster) noteSliceRelease(p *sim.Proc, gid balancer.GID) {
	tenant, ok := c.sl.sliceTenant[gid]
	if !ok {
		return
	}
	c.sl.tenantServed[tenant]++
	if c.sl.tenantServed[tenant] < c.sl.tenantExpect[tenant] {
		return
	}
	c.destroySlice(p, gid, tenant)
	c.admitParked(p)
}

// destroySlice retires the slice row everywhere and returns its capacity.
func (c *Cluster) destroySlice(p *sim.Proc, gid balancer.GID, tenant int64) {
	c.strandedTick(p.Now())
	e := c.mapper.DST().Entry(gid)
	parent := e.Parent
	prof := c.sl.tenantProfile[tenant]
	if err := c.sl.parts[parent].Release(c.sl.slicePart[gid]); err != nil {
		panic(fmt.Sprintf("core: slice release reconciliation failure: %v", err))
	}
	c.mapper.DST().ReturnCapacity(parent, prof.Frac, prof.MemBytes)
	c.mapper.DST().Retire(gid)
	c.gmap.RetireSlice(gid)
	delete(c.sl.tenantGID, tenant)
	delete(c.sl.sliceTenant, gid)
	delete(c.sl.slicePart, gid)
	c.result().SliceReleases++
}

// admitParked retries parked requests in arrival order, granting every one
// that now fits (tenants whose slice appeared meanwhile route to it).
func (c *Cluster) admitParked(p *sim.Proc) {
	kept := c.sl.parked[:0]
	for _, m := range c.sl.parked {
		if gid, ok := c.sl.tenantGID[m.req.Tenant]; ok {
			c.mapper.DST().Bind(gid, m.req.Kind)
			m.out.gid = gid
			c.reply(m)
			continue
		}
		if gid, ok := c.placeSlice(p, m.req); ok {
			m.out.gid = gid
			c.reply(m)
			continue
		}
		kept = append(kept, m)
	}
	c.sl.parked = kept
}

// strandedTick integrates the fleet's stranded-capacity fraction over the
// interval since the last capacity change. The fraction is the mean, over
// partitionable devices, of balancer.FragScore — free capacity weighted by
// the share of slice profiles it cannot serve, the exact measure the Frag
// policy descends.
func (c *Cluster) strandedTick(now sim.Time) {
	if c.sl.numPart == 0 || c.mapper == nil {
		return
	}
	if now > c.sl.strandedAt {
		c.sl.strandedInt += c.strandedFrac() * float64(now-c.sl.strandedAt)
		c.sl.strandedAt = now
	}
}

// strandedFrac computes the instantaneous stranded-capacity fraction.
func (c *Cluster) strandedFrac() float64 {
	var f float64
	for _, e := range c.mapper.DST().Entries() {
		if e.Partitionable {
			f += balancer.FragScore(e)
		}
	}
	return f / float64(c.sl.numPart)
}

// closeStranded finalizes the integral at the end of a run.
func (c *Cluster) closeStranded(end sim.Time) {
	if c.sl.numPart == 0 || c.mapper == nil {
		return
	}
	c.strandedTick(end)
	c.result().StrandedIntegral = c.sl.strandedInt
	c.result().StrandedHorizon = end
}
