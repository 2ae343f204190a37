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
// Every mutation of the placement state happens inside the mapper's service
// step (mapperStep), so slice runs are exactly as deterministic as
// whole-device ones. Fleets without slice streams never touch any of this.

// sliceState is the tenant ledger the mapper service owns; capacity lives in
// the DST rows alone. Nil until a run declares slice streams.
type sliceState struct {
	tenantProfile map[int64]gpu.SliceProfile
	tenantGID     map[int64]balancer.GID // tenant → live slice row
	tenantExpect  map[int64]int          // total requests the tenant will send
	tenantServed  map[int64]int          // requests released so far
	tenantAsk     map[int64]sim.Time     // first placement attempt (admission wait)

	sliceTenant map[balancer.GID]int64 // live slice row → tenant

	parked []mapperMsg // FIFO of selection requests awaiting capacity

	// Time-weighted stranded-capacity integral (see strandedTick).
	strandedAt  sim.Time
	strandedInt float64
	numPart     int // partitionable DST rows (0 in ModeCUDA: no DST)
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
	for _, d := range c.devices {
		if p, ok := d.Spec().ProfileByName(name); ok {
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
func (c *Cluster) handleSliceSelect(now sim.Time, m mapperMsg) {
	if _, asked := c.sl.tenantAsk[m.req.Tenant]; !asked {
		c.sl.tenantAsk[m.req.Tenant] = now
	}
	if !c.serveSlice(now, m) {
		c.result().SliceParks++
		c.sl.parked = append(c.sl.parked, m)
	}
}

// serveSlice answers m with its tenant's live slice, or places and carves
// one. false when nothing fits; m is then left unanswered.
func (c *Cluster) serveSlice(now sim.Time, m mapperMsg) bool {
	gid, ok := c.sl.tenantGID[m.req.Tenant]
	if ok {
		c.mapper.DST().Bind(gid, m.req.Kind)
	} else if gid, ok = c.placeSlice(now, m.req); !ok {
		return false
	}
	*m.out = gid
	c.reply(m)
	return true
}

// placeSlice asks the policy for a parent device and carves the tenant's
// slice from it. ok=false when nothing fits.
func (c *Cluster) placeSlice(now sim.Time, req balancer.Request) (balancer.GID, bool) {
	parent, ok := c.mapper.SelectSliceAt(now, req)
	if !ok {
		return 0, false
	}
	gid := c.carveSlice(now, parent, req)
	c.sl.tenantGID[req.Tenant] = gid
	c.sl.sliceTenant[gid] = req.Tenant
	c.mapper.DST().Bind(gid, req.Kind)
	r := c.result()
	r.SliceCarves++
	r.AdmissionWaits = append(r.AdmissionWaits, now-c.sl.tenantAsk[req.Tenant])
	return gid, true
}

// carveSlice materializes one slice: the parent row's capacity, a fresh
// device with scheduler and backend, and the slice's own DST row at the
// parent's location.
func (c *Cluster) carveSlice(now sim.Time, parent balancer.GID, req balancer.Request) balancer.GID {
	c.strandedTick(now)
	dst := c.mapper.DST()
	dst.CarveCapacity(parent, req.SliceFrac, req.SliceMem)
	spec := c.devices[parent].Spec().Slice(c.sl.tenantProfile[req.Tenant])
	gid := balancer.GID(len(c.devices))
	// The slice lives on its parent device's kernel.
	c.addDevice(c.devEnv[parent], spec)
	c.serveDevice(int(gid))

	pe := dst.Entry(parent)
	row := dstRow(gid, pe.Node, pe.LocalDev, spec)
	row.IsSlice, row.Parent, row.Profile = true, parent, req.SliceProfile
	dst.AddRow(row)
	return gid
}

// noteSliceRelease is called from the mapper service on every binding
// release. When the released binding was the tenant's last request, the
// tenant departs: its slice is destroyed, the capacity returns to the
// parent, and parked requests are retried in arrival order.
func (c *Cluster) noteSliceRelease(now sim.Time, gid balancer.GID) {
	tenant, ok := c.sl.sliceTenant[gid]
	if !ok {
		return
	}
	c.sl.tenantServed[tenant]++
	if c.sl.tenantServed[tenant] < c.sl.tenantExpect[tenant] {
		return
	}
	c.destroySlice(now, gid, tenant)
	c.admitParked(now)
}

// destroySlice marks the slice row dead and returns its capacity to the
// parent row.
func (c *Cluster) destroySlice(now sim.Time, gid balancer.GID, tenant int64) {
	c.strandedTick(now)
	dst := c.mapper.DST()
	prof := c.sl.tenantProfile[tenant]
	dst.ReturnCapacity(dst.Entry(gid).Parent, prof.Frac, prof.MemBytes)
	dst.MarkDead(gid)
	delete(c.sl.tenantGID, tenant)
	delete(c.sl.sliceTenant, gid)
	c.result().SliceReleases++
}

// admitParked retries parked requests in arrival order, granting every one
// that now fits (tenants whose slice appeared meanwhile route to it).
func (c *Cluster) admitParked(now sim.Time) {
	kept := c.sl.parked[:0]
	for _, m := range c.sl.parked {
		if !c.serveSlice(now, m) {
			kept = append(kept, m)
		}
	}
	c.sl.parked = kept
}

// strandedTick integrates the fleet's stranded-capacity fraction over the
// interval since the last capacity change. The fraction is the mean, over
// partitionable devices, of balancer.FragScore — free capacity weighted by
// the share of slice profiles it cannot serve, the exact measure the Frag
// policy descends.
func (c *Cluster) strandedTick(now sim.Time) {
	if c.sl.numPart == 0 {
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
	if c.sl.numPart == 0 {
		return
	}
	c.strandedTick(end)
	c.result().StrandedIntegral = c.sl.strandedInt
	c.result().StrandedHorizon = end
}
