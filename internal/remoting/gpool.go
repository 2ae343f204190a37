// Package remoting implements the gPool abstraction: the logical
// aggregation of every GPU in a cluster of nodes into a single pool visible
// to the Strings scheduler. The gPool Creator collects device information
// from each node's backend daemon, assigns global GPU ids (GIDs), builds the
// gMap from GID to (node, local device) and derives the Device Status
// Table's static rows.
package remoting

import (
	"fmt"

	"repro/internal/balancer"
	"repro/internal/gpu"
)

// Entry is one gMap row: the global id and the physical location of a GPU.
type Entry struct {
	GID      balancer.GID
	Node     int
	Addr     string // node address (used by the TCP remoting demo)
	LocalDev int
	Spec     gpu.Spec

	// Dead marks a device whose backend has failed or whose node was
	// removed. Rows are never deleted — GIDs are stable indices — so a
	// dead row stays resolvable.
	Dead bool

	// Slice rows are MIG-style slices carved at runtime from a
	// partitionable device (see gpu.Partition): Parent is the physical
	// row's GID, SliceID the partition-local slice id, Profile the shape.
	// Like every other row they are never renumbered; a destroyed slice's
	// row is marked Dead and stays resolvable.
	Slice   bool
	Parent  balancer.GID
	SliceID int
	Profile string
}

// GMap is the gPool's global device map, broadcast to every node.
type GMap struct {
	entries []Entry
}

// NodeInfo is what a node's backend daemon reports to the gPool Creator.
type NodeInfo struct {
	Node    int
	Addr    string
	Devices []gpu.Spec
}

// BuildGMap runs the gPool Creator: it assigns GIDs in node order and
// returns the gMap.
func BuildGMap(nodes []NodeInfo) *GMap {
	g := &GMap{}
	gid := balancer.GID(0)
	for _, n := range nodes {
		for i, spec := range n.Devices {
			g.entries = append(g.entries, Entry{
				GID: gid, Node: n.Node, Addr: n.Addr, LocalDev: i, Spec: spec,
			})
			gid++
		}
	}
	return g
}

// MarkDead marks one device's row dead.
func (g *GMap) MarkDead(gid balancer.GID) {
	if int(gid) < 0 || int(gid) >= len(g.entries) {
		return
	}
	g.entries[gid].Dead = true
}

// AddSlice appends the gMap row for a slice carved from parent, assigning
// the next free GID. The slice inherits the parent's location (node, addr,
// local device) — it is the same silicon behind a capacity fence.
func (g *GMap) AddSlice(parent balancer.GID, sliceID int, profile string, spec gpu.Spec) (balancer.GID, error) {
	pe, ok := g.Lookup(parent)
	if !ok {
		return 0, fmt.Errorf("remoting: AddSlice: unknown parent gid %d", parent)
	}
	if pe.Slice {
		return 0, fmt.Errorf("remoting: AddSlice: parent gid %d is itself a slice", parent)
	}
	gid := balancer.GID(len(g.entries))
	g.entries = append(g.entries, Entry{
		GID: gid, Node: pe.Node, Addr: pe.Addr, LocalDev: pe.LocalDev,
		Spec: spec, Slice: true, Parent: parent, SliceID: sliceID, Profile: profile,
	})
	return gid, nil
}

// RetireSlice marks a destroyed slice's row dead. The row — like a removed
// node's — stays resolvable forever, so in-flight references to the GID
// fail cleanly instead of aliasing a future row.
func (g *GMap) RetireSlice(gid balancer.GID) { g.MarkDead(gid) }

// Len returns the pool size.
func (g *GMap) Len() int { return len(g.entries) }

// Lookup resolves a GID to its gMap row.
func (g *GMap) Lookup(gid balancer.GID) (Entry, bool) {
	if int(gid) < 0 || int(gid) >= len(g.entries) {
		return Entry{}, false
	}
	return g.entries[gid], true
}

// Entries returns all rows in GID order.
func (g *GMap) Entries() []Entry { return g.entries }

// DST derives the Device Status Table's static rows from the pool: name,
// location, and the gPool Creator's one-time capability weights.
func (g *GMap) DST() *balancer.DST {
	rows := make([]*balancer.DSTEntry, 0, len(g.entries))
	for _, e := range g.entries {
		row := &balancer.DSTEntry{
			GID:          e.GID,
			Node:         e.Node,
			LocalDev:     e.LocalDev,
			Name:         e.Spec.Name,
			Weight:       e.Spec.Weight,
			ComputeRate:  e.Spec.ComputeRate,
			MemBandwidth: e.Spec.MemBandwidth,
		}
		if e.Dead {
			row.Health = balancer.Dead
		}
		if e.Slice {
			row.IsSlice = true
			row.Parent = e.Parent
			row.Profile = e.Profile
		} else if e.Spec.Partitionable() {
			row.Partitionable = true
			row.TotalFrac = gpu.SliceFractions
			row.FreeFrac = gpu.SliceFractions
			row.TotalMem = e.Spec.MemBytes
			row.FreeMem = e.Spec.MemBytes
			for _, p := range e.Spec.SliceProfiles {
				row.Shapes = append(row.Shapes, balancer.SliceShape{
					Name: p.Name, Frac: p.Frac, Mem: p.MemBytes,
				})
			}
		}
		rows = append(rows, row)
	}
	return balancer.NewDST(rows)
}

// String renders the gMap like the paper's Figure 4 table.
func (g *GMap) String() string {
	s := "gid (nid, lid)\n"
	for _, e := range g.entries {
		s += fmt.Sprintf("%3d  (%d, %d)  %s\n", e.GID, e.Node, e.LocalDev, e.Spec.Name)
	}
	return s
}
